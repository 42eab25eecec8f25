//! On-disk formats and snapshot persistence for the durability layer.
//!
//! Three kinds of files live in a database directory, all built from one
//! checksummed frame codec (`[u32 payload length][u64 checksum][payload]`,
//! FNV-1a over the payload):
//!
//! * **`wal.log`** — the write-ahead log ([`crate::wal`]).  Each frame's
//!   payload is a [`WalRecord`], one logged mutation, led by its tag:
//!   1. `CreateTable` — name, schema, distribution, chunk capacity;
//!   2. `DropTable` — name;
//!   3. `Append` — table, then the batch's rows value by value;
//!   4. `Truncate` — table;
//!   5. *retired* — the row-wise `PutTable` of the first format.  No
//!      released log holds it, and its decoder would be a second way to
//!      rebuild a table, so a log that does is refused with a typed error
//!      naming the tag;
//!   6. `PutTable` (`register_table` / `replace_table`) — name, a `replace`
//!      flag (register must not find the name, replace must), the table
//!      metadata (schema, distribution, chunk capacity, round-robin cursor
//!      — the same bytes the manifest stores per table), then per segment
//!      its chunk count and each chunk length-prefixed in the chunk-file
//!      encoding.  The table travels as it is stored: no row is
//!      materialised to log it, and replay reassembles it with the
//!      constructor the manifest load uses.
//! * **`table_<id>_seg_<n>.chunks`** — per-segment snapshot files.  Each
//!   frame's payload is one serialized sealed [`RowChunk`] (column-major
//!   buffers, null-bitmap words, array offset tables; `f64`s stored as raw
//!   bits so recovery is bit-identical).  A sealed chunk is immutable by
//!   construction, so checkpoints *append* each newly sealed chunk exactly
//!   once and never rewrite a file — unless the table's generation changed
//!   (truncate/replace), which starts a fresh file id.
//! * **`MANIFEST`** — the checkpoint root: WAL epoch + replay offset, and
//!   per table the schema, distribution, chunk capacity, round-robin
//!   cursor, per-segment persisted-chunk counts and the (possibly open)
//!   tail chunk inline.  Written to `MANIFEST.tmp`, fsynced, renamed, then
//!   the directory is fsynced — so the manifest is always either the old or
//!   the new checkpoint, never torn.
//!
//! The checkpoint ordering is what makes WAL truncation crash-safe: the
//! manifest recording `(epoch N, offset)` becomes durable *before* the WAL
//! is reset to epoch `N + 1`.  Recovery therefore accepts exactly two WAL
//! epochs — `N` (reset never happened: replay from the recorded offset) and
//! `N + 1` (reset happened: replay from the header) — and treats anything
//! else as corruption.
//!
//! ## What a chunk file may contain after a crash
//!
//! Chunks are addressed by frame ordinal — the manifest stores a count per
//! segment, not offsets — so a chunk file must never hold a frame the
//! manifest does not count.  A checkpoint that crashes after appending
//! chunks and before installing its manifest leaves exactly such frames:
//! behind the counted ones in a file the old manifest references, or in a
//! file of an id the old manifest never handed out (`next_file_id` is
//! durable only in the manifest, so the id is handed out again).  Both are
//! closed before the next append: recovery cuts every referenced file back
//! to the end of its last counted frame ([`read_chunks`]), and a segment
//! with no counted chunk starts its file anew ([`clear_chunk_file`]).  After
//! [`crate::Database::open`], and before any append to it, no chunk file
//! holds a byte the manifest does not account for.

use crate::chunk::{ColumnChunk, NullBitmap, RowChunk, Segment};
use crate::error::{EngineError, Result};
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{Distribution, Table};
use crate::value::Value;
use crate::wal::Wal;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// File magic identifying a manifest and its format version.
const MANIFEST_MAGIC: &[u8; 8] = b"MADMAN01";

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the record checksum.  Not cryptographic; it detects
/// torn writes and random corruption, which is the failure model here.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps a payload in a `[u32 len][u64 checksum][payload]` frame.  Every
/// byte that reaches disk passes through here, so this is the format's one
/// checked narrowing (see [`count_u32`]).
///
/// # Errors
/// Returns [`EngineError::Storage`] for a payload the `u32` length prefix
/// cannot describe — written with a wrapped length it would be unreadable.
pub(crate) fn frame(payload: &[u8]) -> Result<Vec<u8>> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        let what = format!("{} bytes do not fit the u32 length prefix", payload.len());
        EngineError::storage("frame payload", what)
    })?;
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&checksum64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// The `N` bytes at `pos`, when the buffer holds that many: the one
/// fixed-size read under the frame parser, the WAL header and
/// [`ByteReader`].
pub(crate) fn array_at<const N: usize>(bytes: &[u8], pos: usize) -> Option<[u8; N]> {
    bytes.get(pos..)?.first_chunk().copied()
}

/// Result of parsing one frame at a byte offset.
pub(crate) enum FrameParse<'a> {
    /// A complete, checksum-valid frame; `next` is the following offset.
    Frame {
        /// The frame's payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// No further valid frame: end of buffer, a short (torn) frame, or a
    /// checksum mismatch.  Scanning must stop — frame boundaries after an
    /// invalid frame cannot be trusted.
    End,
}

/// Parses the frame starting at `pos`, if a complete valid one is present.
pub(crate) fn parse_frame(bytes: &[u8], pos: usize) -> FrameParse<'_> {
    let (Some(len), Some(sum)) = (array_at(bytes, pos), array_at(bytes, pos + 4)) else {
        return FrameParse::End;
    };
    let start = pos + 12;
    let Some(end) = start.checked_add(u32::from_le_bytes(len) as usize) else {
        return FrameParse::End;
    };
    if end > bytes.len() {
        return FrameParse::End;
    }
    let payload = &bytes[start..end];
    if checksum64(payload) != u64::from_le_bytes(sum) {
        return FrameParse::End;
    }
    FrameParse::Frame { payload, next: end }
}

// ---------------------------------------------------------------------------
// Primitive encoders / decoder
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A collection count or byte length as the format's `u32`.  One that does
/// not fit saturates instead of wrapping, and cannot reach disk: every
/// counted element occupies at least one byte of the payload (the one
/// exception, the rows of a zero-column chunk, would take 2³² inserts into
/// a single chunk), so such a payload is longer than `u32::MAX` bytes and
/// [`frame`] refuses it before anything is queued.
fn count_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

fn put_count(out: &mut Vec<u8>, n: usize) {
    put_u32(out, count_u32(n));
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_count(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn corrupt(what: &str) -> EngineError {
    EngineError::Storage {
        message: format!("corrupt persisted data: {what}"),
    }
}

/// Cursor over a decoded payload; every read is bounds-checked and surfaces
/// [`EngineError::Storage`] instead of panicking on truncated data.
pub(crate) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt("unexpected end of payload"));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let out = array_at(self.bytes, self.pos);
        let out = out.ok_or_else(|| corrupt("unexpected end of payload"))?;
        self.pos += N;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        self.array().map(|[b]| b)
    }

    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf-8 string"))
    }

    /// Sanity-bounds an element count so a corrupt one cannot drive a huge
    /// allocation: each element occupies at least `min_element_bytes`.
    fn bound(&self, n: usize, min_element_bytes: usize) -> Result<usize> {
        if min_element_bytes > 0 && n > self.remaining() / min_element_bytes {
            return Err(corrupt("collection count exceeds payload size"));
        }
        Ok(n)
    }

    /// A stored collection count, bounded as [`ByteReader::bound`] does.
    fn count(&mut self, min_element_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.bound(n, min_element_bytes)
    }

    /// `n` elements of `N` bytes each, their bytes taken in one bounds check
    /// (which also caps the allocation).
    fn fixed_vec<const N: usize, T>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>> {
        let (elements, _) = self.take(n.saturating_mul(N))?.as_chunks();
        Ok(elements.iter().map(|bytes| decode(*bytes)).collect())
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.bytes.len() {
            return Err(corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Element codec
// ---------------------------------------------------------------------------

/// One stored element type.  A [`Value`] and a [`ColumnChunk`] differ only in
/// shape (a scalar, or values + offsets, + a NULL bitmap); what an element
/// looks like on disk — and the one loop that writes or reads a run of them
/// — is here, once per type.
trait Element: Sized {
    /// Fewest bytes one encoded element occupies; bounds a decoded count
    /// before anything is allocated for it.
    const MIN_BYTES: usize;

    fn put(&self, out: &mut Vec<u8>);

    fn read(r: &mut ByteReader<'_>) -> Result<Self>;

    /// `n` consecutive elements.
    fn read_vec(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<Self>> {
        r.bound(n, Self::MIN_BYTES)?;
        (0..n).map(|_| Self::read(r)).collect()
    }
}

/// A fixed-width element: `$width` bytes through `$to` / `$from`, and a run
/// of them taken from the payload at once.
macro_rules! fixed_width_element {
    ($type:ty, $width:literal, $to:expr, $from:expr) => {
        impl Element for $type {
            const MIN_BYTES: usize = $width;

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&$to(*self));
            }

            fn read(r: &mut ByteReader<'_>) -> Result<Self> {
                r.array().map($from)
            }

            fn read_vec(r: &mut ByteReader<'_>, n: usize) -> Result<Vec<Self>> {
                r.fixed_vec(n, $from)
            }
        }
    };
}

fixed_width_element!(bool, 1, |v: bool| [v as u8], |[b]: [u8; 1]| b != 0);
fixed_width_element!(i64, 8, i64::to_le_bytes, i64::from_le_bytes);
// NULL-bitmap words.
fixed_width_element!(u64, 8, u64::to_le_bytes, u64::from_le_bytes);
// Raw bits, so NaN payloads and signed zeros survive bit-identically.
fixed_width_element!(f64, 8, |v: f64| v.to_bits().to_le_bytes(), |b| {
    f64::from_bits(u64::from_le_bytes(b))
});
// Array offsets, `u64` on disk.
fixed_width_element!(
    usize,
    8,
    |v: usize| (v as u64).to_le_bytes(),
    |b| u64::from_le_bytes(b) as usize
);

impl Element for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        put_str(out, self);
    }

    fn read(r: &mut ByteReader<'_>) -> Result<Self> {
        r.str()
    }
}

fn put_slice<T: Element>(out: &mut Vec<u8>, items: &[T]) {
    out.reserve(items.len() * T::MIN_BYTES);
    for item in items {
        item.put(out);
    }
}

/// A run of elements behind its count.
fn put_counted<T: Element>(out: &mut Vec<u8>, items: &[T]) {
    put_count(out, items.len());
    put_slice(out, items);
}

fn read_counted<T: Element>(r: &mut ByteReader<'_>) -> Result<Vec<T>> {
    let n = r.u32()? as usize;
    T::read_vec(r, n)
}

// ---------------------------------------------------------------------------
// Value / schema / distribution codecs
// ---------------------------------------------------------------------------

/// Pushes a tag and hands the buffer on to the encoder of what it tags.
fn tagged(out: &mut Vec<u8>, tag: u8) -> &mut Vec<u8> {
    out.push(tag);
    out
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => b.put(tagged(out, 1)),
        Value::Int(i) => i.put(tagged(out, 2)),
        Value::Double(d) => d.put(tagged(out, 3)),
        Value::Text(s) => s.put(tagged(out, 4)),
        Value::DoubleArray(xs) => put_counted(tagged(out, 5), xs),
        Value::IntArray(xs) => put_counted(tagged(out, 6), xs),
        Value::TextArray(xs) => put_counted(tagged(out, 7), xs),
    }
}

fn read_value(r: &mut ByteReader<'_>) -> Result<Value> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(bool::read(r)?),
        2 => Value::Int(i64::read(r)?),
        3 => Value::Double(f64::read(r)?),
        4 => Value::Text(String::read(r)?),
        5 => Value::DoubleArray(read_counted(r)?),
        6 => Value::IntArray(read_counted(r)?),
        7 => Value::TextArray(read_counted(r)?),
        t => return Err(corrupt(&format!("unknown value tag {t}"))),
    })
}

fn type_tag(t: ColumnType) -> u8 {
    match t {
        ColumnType::Bool => 0,
        ColumnType::Int => 1,
        ColumnType::Double => 2,
        ColumnType::Text => 3,
        ColumnType::DoubleArray => 4,
        ColumnType::TextArray => 5,
        ColumnType::IntArray => 6,
    }
}

fn tag_type(t: u8) -> Result<ColumnType> {
    Ok(match t {
        0 => ColumnType::Bool,
        1 => ColumnType::Int,
        2 => ColumnType::Double,
        3 => ColumnType::Text,
        4 => ColumnType::DoubleArray,
        5 => ColumnType::TextArray,
        6 => ColumnType::IntArray,
        t => return Err(corrupt(&format!("unknown column type tag {t}"))),
    })
}

fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_count(out, schema.arity());
    for col in schema.columns() {
        put_str(out, &col.name);
        out.push(type_tag(col.column_type));
    }
}

fn read_schema(r: &mut ByteReader<'_>) -> Result<Schema> {
    let n = r.count(5)?;
    let mut columns = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let column_type = tag_type(r.u8()?)?;
        columns.push(Column::new(name, column_type));
    }
    Ok(Schema::new(columns))
}

fn put_distribution(out: &mut Vec<u8>, d: &Distribution) {
    match d {
        Distribution::RoundRobin => out.push(0),
        Distribution::HashColumn(name) => put_str(tagged(out, 1), name),
    }
}

fn read_distribution(r: &mut ByteReader<'_>) -> Result<Distribution> {
    Ok(match r.u8()? {
        0 => Distribution::RoundRobin,
        1 => Distribution::HashColumn(r.str()?),
        t => return Err(corrupt(&format!("unknown distribution tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Chunk codec
// ---------------------------------------------------------------------------

fn read_bitmap(r: &mut ByteReader<'_>, rows: usize) -> Result<NullBitmap> {
    NullBitmap::from_raw(read_counted(r)?, rows)
}

/// A scalar column: one value per row (no count — the chunk header carries
/// the row count), then the NULL bitmap.
fn put_scalars<T: Element>(out: &mut Vec<u8>, values: &[T], nulls: &NullBitmap) {
    put_slice(out, values);
    put_counted(out, nulls.words());
}

fn read_scalars<T: Element>(r: &mut ByteReader<'_>, rows: usize) -> Result<(Vec<T>, NullBitmap)> {
    Ok((T::read_vec(r, rows)?, read_bitmap(r, rows)?))
}

/// An array column: the flattened values, the `rows + 1` offsets into them,
/// then the NULL bitmap.
fn put_arrays<T: Element>(out: &mut Vec<u8>, values: &[T], offsets: &[usize], nulls: &NullBitmap) {
    put_counted(out, values);
    put_counted(out, offsets);
    put_counted(out, nulls.words());
}

fn read_arrays<T: Element>(
    r: &mut ByteReader<'_>,
    rows: usize,
) -> Result<(Vec<T>, Vec<usize>, NullBitmap)> {
    let values: Vec<T> = read_counted(r)?;
    let offsets: Vec<usize> = read_counted(r)?;
    if offsets.len() != rows + 1 {
        return Err(corrupt("offset table length mismatch"));
    }
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&values.len())
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(corrupt("offset table not monotone over the values buffer"));
    }
    Ok((values, offsets, read_bitmap(r, rows)?))
}

fn put_column(out: &mut Vec<u8>, column: &ColumnChunk) {
    use ColumnChunk::*;
    out.push(type_tag(column.column_type()));
    match column {
        Bool { values, nulls } => put_scalars(out, values, nulls),
        Int { values, nulls } => put_scalars(out, values, nulls),
        Double { values, nulls } => put_scalars(out, values, nulls),
        Text { values, nulls } => put_scalars(out, values, nulls),
        DoubleArray {
            values,
            offsets,
            nulls,
        } => put_arrays(out, values, offsets, nulls),
        IntArray {
            values,
            offsets,
            nulls,
        } => put_arrays(out, values, offsets, nulls),
        TextArray {
            values,
            offsets,
            nulls,
        } => put_arrays(out, values, offsets, nulls),
    }
}

fn read_column(r: &mut ByteReader<'_>, rows: usize) -> Result<ColumnChunk> {
    use ColumnChunk::*;
    match tag_type(r.u8()?)? {
        ColumnType::Bool => read_scalars(r, rows).map(|(values, nulls)| Bool { values, nulls }),
        ColumnType::Int => read_scalars(r, rows).map(|(values, nulls)| Int { values, nulls }),
        ColumnType::Double => read_scalars(r, rows).map(|(values, nulls)| Double { values, nulls }),
        ColumnType::Text => read_scalars(r, rows).map(|(values, nulls)| Text { values, nulls }),
        ColumnType::DoubleArray => {
            read_arrays(r, rows).map(|(values, offsets, nulls)| DoubleArray {
                values,
                offsets,
                nulls,
            })
        }
        ColumnType::IntArray => read_arrays(r, rows).map(|(values, offsets, nulls)| IntArray {
            values,
            offsets,
            nulls,
        }),
        ColumnType::TextArray => read_arrays(r, rows).map(|(values, offsets, nulls)| TextArray {
            values,
            offsets,
            nulls,
        }),
    }
}

/// Writes a chunk: row count, arity, then each column's buffers.
fn put_chunk(out: &mut Vec<u8>, chunk: &RowChunk) {
    put_count(out, chunk.len());
    put_count(out, chunk.arity());
    for column in chunk.columns() {
        put_column(out, column);
    }
}

/// Serializes a chunk as a chunk-file payload.
pub(crate) fn encode_chunk(chunk: &RowChunk) -> Vec<u8> {
    let mut out = Vec::new();
    put_chunk(&mut out, chunk);
    out
}

/// Decodes a chunk serialized by [`encode_chunk`], validating that every
/// column covers exactly the declared row count.
pub(crate) fn decode_chunk(payload: &[u8]) -> Result<RowChunk> {
    let mut r = ByteReader::new(payload);
    let rows = r.u32()? as usize;
    let arity = r.u32()? as usize;
    if arity > payload.len() {
        return Err(corrupt("chunk arity exceeds payload size"));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let column = read_column(&mut r, rows)?;
        if column.nulls().len() != rows {
            return Err(corrupt("column row count mismatch"));
        }
        columns.push(column);
    }
    r.finish()?;
    Ok(RowChunk::from_parts(rows, columns))
}

/// A chunk nested in a larger payload (a manifest tail, a `PutTable`
/// segment): its byte length, then the [`encode_chunk`] bytes.
fn put_sized_chunk(out: &mut Vec<u8>, chunk: &RowChunk) {
    let at = out.len();
    put_u32(out, 0);
    put_chunk(out, chunk);
    let len = count_u32(out.len() - at - 4);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

fn read_sized_chunk(r: &mut ByteReader<'_>) -> Result<RowChunk> {
    let len = r.u32()? as usize;
    decode_chunk(r.take(len)?)
}

// ---------------------------------------------------------------------------
// Table metadata and WAL records
// ---------------------------------------------------------------------------

/// What a table is besides its chunks: schema, distribution, chunk capacity
/// and round-robin cursor, in the byte order the manifest and `PutTable`
/// share.
fn put_table_meta(
    out: &mut Vec<u8>,
    schema: &Schema,
    distribution: &Distribution,
    chunk_capacity: u64,
    next_round_robin: u64,
) {
    put_schema(out, schema);
    put_distribution(out, distribution);
    put_u64(out, chunk_capacity);
    put_u64(out, next_round_robin);
}

fn read_table_meta(r: &mut ByteReader<'_>) -> Result<(Schema, Distribution, u64, u64)> {
    Ok((read_schema(r)?, read_distribution(r)?, r.u64()?, r.u64()?))
}

/// Reassembles a table from decoded metadata and segments — the one way a
/// persisted table comes back, for the manifest load and `PutTable` replay
/// alike.  The fields an insert indexes with are checked, so corrupt
/// metadata is a typed error instead of a later panic.
fn assemble_table(
    (schema, distribution, chunk_capacity, next_round_robin): (Schema, Distribution, u64, u64),
    segments: Vec<Segment>,
) -> Result<Table> {
    if chunk_capacity == 0 || next_round_robin >= segments.len() as u64 {
        return Err(corrupt("table metadata out of range"));
    }
    Ok(Table::from_recovered(
        schema,
        segments,
        distribution,
        next_round_robin as usize,
        chunk_capacity as usize,
    ))
}

/// One logged mutation.  A public mutator of [`crate::Database`] only builds
/// one of these; `Database::apply` is the single function that carries it
/// out, for the live call and for replay.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// `Database::create_table` (and the chunk-capacity variant).
    CreateTable {
        /// Table name.
        name: String,
        /// Table schema.
        schema: Schema,
        /// Distribution policy.
        distribution: Distribution,
        /// Rows per chunk.
        chunk_capacity: u64,
    },
    /// `Database::drop_table`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// One `Database::append_rows` call — the whole batch is one record, so
    /// a torn group commit can never surface part of a batch.
    Append {
        /// Target table.
        table: String,
        /// The appended rows, in insertion order.
        rows: Vec<Vec<Value>>,
    },
    /// `Database::truncate_table`.
    Truncate {
        /// Target table.
        table: String,
    },
    /// Wholesale contents (`register_table` / `replace_table`): the table as
    /// it is stored — an `Arc` clone of its chunks, never its rows.
    PutTable {
        /// Table name.
        name: String,
        /// `replace_table` (the name must exist) or `register_table` (it
        /// must not).
        replace: bool,
        /// Metadata and chunks, exactly as cataloged.
        table: Table,
    },
}

impl WalRecord {
    /// The table the record creates, changes or drops.
    pub(crate) fn target(&self) -> &str {
        match self {
            WalRecord::CreateTable { name, .. }
            | WalRecord::DropTable { name }
            | WalRecord::PutTable { name, .. } => name,
            WalRecord::Append { table, .. } | WalRecord::Truncate { table } => table,
        }
    }
}

fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_count(out, rows.len());
    for row in rows {
        put_count(out, row.len());
        for v in row {
            put_value(out, v);
        }
    }
}

fn read_rows(r: &mut ByteReader<'_>) -> Result<Vec<Vec<Value>>> {
    let n = r.count(4)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let arity = r.count(1)?;
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(read_value(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Serializes a WAL record payload.
pub(crate) fn encode_record(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match record {
        WalRecord::CreateTable {
            name,
            schema,
            distribution,
            chunk_capacity,
        } => {
            out.push(1);
            put_str(&mut out, name);
            put_schema(&mut out, schema);
            put_distribution(&mut out, distribution);
            put_u64(&mut out, *chunk_capacity);
        }
        WalRecord::DropTable { name } => put_str(tagged(&mut out, 2), name),
        WalRecord::Append { table, rows } => {
            put_str(tagged(&mut out, 3), table);
            put_rows(&mut out, rows);
        }
        WalRecord::Truncate { table } => put_str(tagged(&mut out, 4), table),
        WalRecord::PutTable {
            name,
            replace,
            table,
        } => {
            put_str(tagged(&mut out, 6), name);
            replace.put(&mut out);
            put_table_meta(
                &mut out,
                table.schema(),
                table.distribution(),
                table.chunk_capacity() as u64,
                table.next_round_robin() as u64,
            );
            put_count(&mut out, table.num_segments());
            for segment in 0..table.num_segments() {
                let chunks = table.segment(segment).chunks();
                put_count(&mut out, chunks.len());
                for chunk in chunks {
                    put_sized_chunk(&mut out, chunk);
                }
            }
        }
    }
    out
}

/// Decodes a WAL record payload.
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord> {
    let mut r = ByteReader::new(payload);
    let record = match r.u8()? {
        1 => WalRecord::CreateTable {
            name: r.str()?,
            schema: read_schema(&mut r)?,
            distribution: read_distribution(&mut r)?,
            chunk_capacity: r.u64()?,
        },
        2 => WalRecord::DropTable { name: r.str()? },
        3 => WalRecord::Append {
            table: r.str()?,
            rows: read_rows(&mut r)?,
        },
        4 => WalRecord::Truncate { table: r.str()? },
        5 => {
            return Err(corrupt(
                "wal record tag 5: the row-wise PutTable is retired (now tag 6)",
            ))
        }
        6 => {
            let name = r.str()?;
            let replace = bool::read(&mut r)?;
            let meta = read_table_meta(&mut r)?;
            let segment_count = r.count(4)?;
            let mut segments = Vec::with_capacity(segment_count);
            for _ in 0..segment_count {
                // A nested chunk is at least its length prefix and header.
                let chunks = (0..r.count(12)?)
                    .map(|_| read_sized_chunk(&mut r).map(Arc::new))
                    .collect::<Result<_>>()?;
                segments.push(Segment::from_chunks(chunks));
            }
            WalRecord::PutTable {
                name,
                replace,
                table: assemble_table(meta, segments)?,
            }
        }
        t => return Err(corrupt(&format!("unknown wal record tag {t}"))),
    };
    r.finish()?;
    Ok(record)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// One segment's persistence record inside the manifest.
pub(crate) struct ManifestSegment {
    /// Sealed chunks already written to the segment's chunk file.
    pub persisted_chunks: u64,
    /// The segment's last chunk at checkpoint time (open tail or the most
    /// recent sealed chunk), stored inline — it may still grow, so it is
    /// never written to the append-only chunk file.
    pub tail: Option<RowChunk>,
}

/// One table's persistence record inside the manifest.
pub(crate) struct ManifestTable {
    /// Table name.
    pub name: String,
    /// Identifier naming the table's chunk files.
    pub file_id: u64,
    /// Table schema.
    pub schema: Schema,
    /// Distribution policy.
    pub distribution: Distribution,
    /// Rows per chunk.
    pub chunk_capacity: u64,
    /// Round-robin cursor at checkpoint time.
    pub next_round_robin: u64,
    /// Per-segment chunk bookkeeping.
    pub segments: Vec<ManifestSegment>,
}

/// The checkpoint root: everything recovery needs besides the WAL tail.
pub(crate) struct Manifest {
    /// WAL epoch the `wal_offset` refers to.
    pub epoch: u64,
    /// Byte offset in the epoch's WAL from which replay must resume.
    pub wal_offset: u64,
    /// The database's default segment count.
    pub num_segments: u64,
    /// Next unused chunk-file id.
    pub next_file_id: u64,
    /// Every non-temporary table at checkpoint time.
    pub tables: Vec<ManifestTable>,
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, m.epoch);
    put_u64(&mut out, m.wal_offset);
    put_u64(&mut out, m.num_segments);
    put_u64(&mut out, m.next_file_id);
    put_count(&mut out, m.tables.len());
    for t in &m.tables {
        put_str(&mut out, &t.name);
        put_u64(&mut out, t.file_id);
        put_table_meta(
            &mut out,
            &t.schema,
            &t.distribution,
            t.chunk_capacity,
            t.next_round_robin,
        );
        put_count(&mut out, t.segments.len());
        for s in &t.segments {
            put_u64(&mut out, s.persisted_chunks);
            match &s.tail {
                None => out.push(0),
                Some(chunk) => put_sized_chunk(tagged(&mut out, 1), chunk),
            }
        }
    }
    out
}

fn decode_manifest(payload: &[u8]) -> Result<Manifest> {
    let mut r = ByteReader::new(payload);
    let epoch = r.u64()?;
    let wal_offset = r.u64()?;
    let num_segments = r.u64()?;
    let next_file_id = r.u64()?;
    let table_count = r.count(8)?;
    let mut tables = Vec::with_capacity(table_count);
    for _ in 0..table_count {
        let name = r.str()?;
        let file_id = r.u64()?;
        let (schema, distribution, chunk_capacity, next_round_robin) = read_table_meta(&mut r)?;
        let seg_count = r.count(9)?;
        let mut segments = Vec::with_capacity(seg_count);
        for _ in 0..seg_count {
            let persisted_chunks = r.u64()?;
            let tail = match r.u8()? {
                0 => None,
                1 => Some(read_sized_chunk(&mut r)?),
                t => return Err(corrupt(&format!("unknown tail tag {t}"))),
            };
            segments.push(ManifestSegment {
                persisted_chunks,
                tail,
            });
        }
        tables.push(ManifestTable {
            name,
            file_id,
            schema,
            distribution,
            chunk_capacity,
            next_round_robin,
            segments,
        });
    }
    r.finish()?;
    Ok(Manifest {
        epoch,
        wal_offset,
        num_segments,
        next_file_id,
        tables,
    })
}

// ---------------------------------------------------------------------------
// File layout and I/O
// ---------------------------------------------------------------------------

/// Path of the write-ahead log inside a database directory.
pub(crate) fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// Path of one table segment's chunk file.
pub(crate) fn chunk_path(dir: &Path, file_id: u64, segment: usize) -> PathBuf {
    dir.join(format!("table_{file_id}_seg_{segment}.chunks"))
}

fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| EngineError::storage("sync directory", e))
}

/// Atomically installs a new manifest: write to `MANIFEST.tmp`, fsync,
/// rename over `MANIFEST`, fsync the directory.
pub(crate) fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<()> {
    let payload = encode_manifest(manifest);
    let mut bytes = Vec::with_capacity(8 + 12 + payload.len());
    bytes.extend_from_slice(MANIFEST_MAGIC);
    bytes.extend_from_slice(&frame(&payload)?);
    let tmp = dir.join("MANIFEST.tmp");
    let mut file = File::create(&tmp).map_err(|e| EngineError::storage("create manifest", e))?;
    file.write_all(&bytes)
        .and_then(|_| file.sync_all())
        .map_err(|e| EngineError::storage("write manifest", e))?;
    drop(file);
    std::fs::rename(&tmp, manifest_path(dir))
        .map_err(|e| EngineError::storage("install manifest", e))?;
    sync_dir(dir)
}

/// Loads the manifest; `None` when the database has never checkpointed.
///
/// # Errors
/// A present-but-invalid manifest is a hard [`EngineError::Storage`] error:
/// manifest installation is atomic, so corruption here means real data loss
/// that must not be silently ignored.
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<Manifest>> {
    let bytes = match std::fs::read(manifest_path(dir)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(EngineError::storage("read manifest", e)),
    };
    if bytes.len() < 8 || &bytes[..8] != MANIFEST_MAGIC {
        return Err(corrupt("manifest magic"));
    }
    match parse_frame(&bytes, 8) {
        FrameParse::Frame { payload, next } if next == bytes.len() => {
            decode_manifest(payload).map(Some)
        }
        _ => Err(corrupt("manifest frame")),
    }
}

/// Removes whatever sits at a chunk-file path no counted chunk lives in yet:
/// frames written for a table incarnation no manifest ever described (see
/// the module docs).  The first append to the path then starts the file.
pub(crate) fn clear_chunk_file(path: &Path) -> Result<()> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(EngineError::storage("clear chunk file", e))
        }
        _ => Ok(()),
    }
}

/// Appends serialized sealed chunks to a segment chunk file and fsyncs it.
pub(crate) fn append_chunks(path: &Path, chunks: &[Arc<RowChunk>]) -> Result<()> {
    if chunks.is_empty() {
        return Ok(());
    }
    let file = OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| EngineError::storage("open chunk file", e))?;
    let mut buf = Vec::new();
    for chunk in chunks {
        buf.extend_from_slice(&frame(&encode_chunk(chunk))?);
    }
    (&file)
        .write_all(&buf)
        .and_then(|_| file.sync_all())
        .map_err(|e| EngineError::storage("append chunk file", e))
}

/// Reads the first `count` chunks back from a segment chunk file and cuts
/// the file back to them.  It may hold *more* frames than the manifest
/// counts (a checkpoint that crashed after appending chunks but before
/// installing its manifest); chunks are addressed by frame ordinal, so the
/// extras must be gone before the next checkpoint appends behind them.
/// Fewer valid frames than `count` is corruption.
pub(crate) fn read_chunks(path: &Path, count: usize) -> Result<Vec<Arc<RowChunk>>> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if count == 0 && e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(EngineError::storage("read chunk file", e)),
    };
    let mut chunks = Vec::with_capacity(count);
    let mut pos = 0;
    while chunks.len() < count {
        match parse_frame(&bytes, pos) {
            FrameParse::Frame { payload, next } => {
                chunks.push(Arc::new(decode_chunk(payload)?));
                pos = next;
            }
            FrameParse::End => {
                return Err(corrupt(&format!(
                    "chunk file {} holds {} valid chunks, manifest expects {count}",
                    path.display(),
                    chunks.len()
                )))
            }
        }
    }
    if pos < bytes.len() {
        OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|file| file.set_len(pos as u64).and_then(|_| file.sync_all()))
            .map_err(|e| EngineError::storage("trim chunk file", e))?;
    }
    Ok(chunks)
}

/// Rebuilds one manifest table: per segment its chunk file's persisted
/// chunks plus the manifest's tail.
pub(crate) fn load_table(dir: &Path, t: &ManifestTable) -> Result<Table> {
    let mut segments = Vec::with_capacity(t.segments.len());
    for (segment, m) in t.segments.iter().enumerate() {
        let mut chunks = read_chunks(
            &chunk_path(dir, t.file_id, segment),
            m.persisted_chunks as usize,
        )?;
        if let Some(tail) = m.tail.as_ref().filter(|tail| !tail.is_empty()) {
            chunks.push(Arc::new(tail.clone()));
        }
        segments.push(Segment::from_chunks(chunks));
    }
    let meta = (
        t.schema.clone(),
        t.distribution.clone(),
        t.chunk_capacity,
        t.next_round_robin,
    );
    assemble_table(meta, segments)
}

// ---------------------------------------------------------------------------
// Durability state attached to a Database
// ---------------------------------------------------------------------------

/// Per-table snapshot bookkeeping: which chunk file the table writes to and
/// how many sealed chunks of each segment are already on disk.
pub(crate) struct TablePersist {
    /// The table's current chunk-file id.
    pub file_id: u64,
    /// Generation this bookkeeping describes; a mismatch at checkpoint time
    /// (truncate/replace since the last one) invalidates the persisted
    /// prefix and forces a fresh file id.
    pub generation: u64,
    /// Per-segment count of sealed chunks already appended to disk.
    pub persisted: Vec<u64>,
}

/// Snapshot bookkeeping across checkpoints.
pub(crate) struct PersistState {
    /// Next unused chunk-file id.
    pub next_file_id: u64,
    /// Bookkeeping per cataloged (non-temporary) table.
    pub tables: HashMap<String, TablePersist>,
}

/// The durable half of a [`crate::Database`]: directory, WAL, the commit
/// gate serializing logged mutations against checkpoints, and snapshot
/// bookkeeping.
pub(crate) struct Durability {
    /// The database directory.
    pub dir: PathBuf,
    /// The write-ahead log.
    pub wal: Wal,
    /// Logged mutations hold this for read across (table lock + WAL
    /// enqueue); checkpoint holds it for write while cutting its snapshot,
    /// so the manifest's `(epoch, offset)` and the snapshot agree exactly.
    pub gate: RwLock<()>,
    /// Chunk-file bookkeeping, touched only by checkpoints.
    pub persist: Mutex<PersistState>,
}

/// Deletes a table incarnation's chunk files (best-effort; missing files are
/// fine — the table may never have sealed a chunk in some segment).
pub(crate) fn delete_chunk_files(dir: &Path, file_id: u64, num_segments: usize) {
    for seg in 0..num_segments {
        std::fs::remove_file(chunk_path(dir, file_id, seg)).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    fn sample_chunk() -> RowChunk {
        let schema = Schema::new(vec![
            Column::new("b", ColumnType::Bool),
            Column::new("i", ColumnType::Int),
            Column::new("d", ColumnType::Double),
            Column::new("t", ColumnType::Text),
            Column::new("da", ColumnType::DoubleArray),
            Column::new("ia", ColumnType::IntArray),
            Column::new("ta", ColumnType::TextArray),
        ]);
        let mut chunk = RowChunk::new(&schema);
        chunk
            .push_values(&[
                Value::Bool(true),
                Value::Int(7),
                Value::Double(1.5),
                Value::Text("alpha".into()),
                Value::DoubleArray(vec![1.0, -0.0, f64::NAN]),
                Value::IntArray(vec![1, 2]),
                Value::TextArray(vec!["x".into(), "y".into()]),
            ])
            .unwrap();
        chunk
            .push_values(&[
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ])
            .unwrap();
        chunk
            .push_values(&[
                Value::Bool(false),
                Value::Int(-3),
                Value::Double(f64::NEG_INFINITY),
                Value::Text(String::new()),
                Value::DoubleArray(Vec::new()),
                Value::IntArray(vec![0]),
                Value::TextArray(Vec::new()),
            ])
            .unwrap();
        chunk
    }

    #[test]
    fn chunk_codec_is_bit_identical() {
        let chunk = sample_chunk();
        let decoded = decode_chunk(&encode_chunk(&chunk)).unwrap();
        assert_eq!(decoded.len(), chunk.len());
        assert_eq!(decoded.arity(), chunk.arity());
        for i in 0..chunk.len() {
            for c in 0..chunk.arity() {
                let (a, b) = (chunk.value(i, c), decoded.value(i, c));
                match (&a, &b) {
                    (Value::DoubleArray(xs), Value::DoubleArray(ys)) => {
                        let xs: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
                        let ys: Vec<u64> = ys.iter().map(|y| y.to_bits()).collect();
                        assert_eq!(xs, ys);
                    }
                    (Value::Double(x), Value::Double(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    _ => assert_eq!(a, b),
                }
            }
        }
        // -0.0 survives as -0.0, not 0.0.
        let Value::DoubleArray(xs) = decoded.value(0, 4) else {
            panic!("expected array")
        };
        assert_eq!(xs[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn chunk_decoder_rejects_corruption() {
        let bytes = encode_chunk(&sample_chunk());
        // Truncations anywhere must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_chunk(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_chunk(&extended).is_err());
    }

    #[test]
    fn wal_records_round_trip() {
        let schema = Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let records = vec![
            WalRecord::CreateTable {
                name: "points".into(),
                schema: schema.clone(),
                distribution: Distribution::HashColumn("id".into()),
                chunk_capacity: 64,
            },
            WalRecord::Append {
                table: "points".into(),
                rows: vec![
                    vec![Value::Int(1), Value::DoubleArray(vec![1.0, 2.0])],
                    vec![Value::Null, Value::Null],
                ],
            },
            WalRecord::Truncate {
                table: "points".into(),
            },
            WalRecord::PutTable {
                name: "points".into(),
                replace: true,
                table: {
                    let mut table = Table::new(schema, 2).unwrap();
                    table
                        .insert(Row::new(vec![Value::Int(9), Value::Null]))
                        .unwrap();
                    table
                },
            },
            WalRecord::DropTable {
                name: "points".into(),
            },
        ];
        for record in &records {
            let bytes = encode_record(record);
            assert_eq!(&decode_record(&bytes).unwrap(), record);
            for cut in 0..bytes.len() {
                assert!(decode_record(&bytes[..cut]).is_err());
            }
        }
    }

    // Bytes the parent commit's encoders (before the element codec and the
    // shared table metadata) produced for the inputs of
    // `formats_are_byte_for_byte_the_previous_encoders`, committed as the
    // guard behind "bytes on disk do not change".
    const GOLDEN_CHUNK: &str = "\
        03000000070000000001000001000000020000000000000001070000000000000000000000000000\
        00fdffffffffffffff01000000020000000000000002000000000000f83f00000000000000000000\
        00000000f0ff0100000002000000000000000305000000616c706861000000000000000001000000\
        02000000000000000403000000000000000000f03f0000000000000080000000000000f87f040000\
        00000000000000000003000000000000000300000000000000030000000000000001000000020000\
        00000000000603000000010000000000000002000000000000000000000000000000040000000000\
        00000000000002000000000000000200000000000000030000000000000001000000020000000000\
        00000502000000010000007801000000790400000000000000000000000200000000000000020000\
        00000000000200000000000000010000000200000000000000\
    ";
    const GOLDEN_FRAMED_TAIL: &str = "\
        1d000000b021be20ca73f4ef01000000010000000200000000000004400100000000000000000000\
        00\
    ";
    const GOLDEN_MANIFEST: &str = "\
        0500000000000000d204000000000000040000000000000007000000000000000100000001000000\
        74020000000000000001000000010000007602010100000076080000000000000001000000000000\
        00020000000300000000000000011d00000001000000010000000200000000000004400100000000\
        00000000000000000000000000000000\
    ";
    const GOLDEN_CREATE: &str = "\
        0106000000706f696e74730200000002000000696401010000007804010200000069644000000000\
        000000\
    ";
    const GOLDEN_DROP: &str = "\
        0206000000706f696e7473\
    ";
    const GOLDEN_APPEND: &str = "\
        0306000000706f696e747303000000020000000201000000000000000502000000000000000000f0\
        3f000000000000008002000000000005000000010103000000000000044004010000006106010000\
        00ffffffffffffffff0702000000010000007800000000\
    ";
    const GOLDEN_TRUNCATE: &str = "\
        0406000000706f696e7473\
    ";

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn formats_are_byte_for_byte_the_previous_encoders() {
        // Chunk payload, and a chunk-file frame around one.
        assert_eq!(encode_chunk(&sample_chunk()), unhex(GOLDEN_CHUNK));
        let decoded = decode_chunk(&unhex(GOLDEN_CHUNK)).unwrap();
        assert_eq!(encode_chunk(&decoded), unhex(GOLDEN_CHUNK));
        let framed = frame(&encode_chunk(&sample_tail())).unwrap();
        assert_eq!(framed, unhex(GOLDEN_FRAMED_TAIL));
        assert!(matches!(
            parse_frame(&framed, 0),
            FrameParse::Frame { next, .. } if next == framed.len()
        ));

        // Manifest payload.
        let manifest = Manifest {
            epoch: 5,
            wal_offset: 1234,
            num_segments: 4,
            next_file_id: 7,
            tables: vec![ManifestTable {
                name: "t".into(),
                file_id: 2,
                schema: Schema::new(vec![Column::new("v", ColumnType::Double)]),
                distribution: Distribution::HashColumn("v".into()),
                chunk_capacity: 8,
                next_round_robin: 1,
                segments: vec![
                    ManifestSegment {
                        persisted_chunks: 3,
                        tail: Some(sample_tail()),
                    },
                    ManifestSegment {
                        persisted_chunks: 0,
                        tail: None,
                    },
                ],
            }],
        };
        assert_eq!(encode_manifest(&manifest), unhex(GOLDEN_MANIFEST));
        let decoded = decode_manifest(&unhex(GOLDEN_MANIFEST)).unwrap();
        assert_eq!(encode_manifest(&decoded), unhex(GOLDEN_MANIFEST));

        // The four records whose bytes this format revision does not touch.
        let records = [
            (
                WalRecord::CreateTable {
                    name: "points".into(),
                    schema: Schema::new(vec![
                        Column::new("id", ColumnType::Int),
                        Column::new("x", ColumnType::DoubleArray),
                    ]),
                    distribution: Distribution::HashColumn("id".into()),
                    chunk_capacity: 64,
                },
                GOLDEN_CREATE,
            ),
            (
                WalRecord::DropTable {
                    name: "points".into(),
                },
                GOLDEN_DROP,
            ),
            (
                WalRecord::Append {
                    table: "points".into(),
                    rows: vec![
                        vec![Value::Int(1), Value::DoubleArray(vec![1.0, -0.0])],
                        vec![Value::Null, Value::Null],
                        vec![
                            Value::Bool(true),
                            Value::Double(2.5),
                            Value::Text("a".into()),
                            Value::IntArray(vec![-1]),
                            Value::TextArray(vec!["x".into(), String::new()]),
                        ],
                    ],
                },
                GOLDEN_APPEND,
            ),
            (
                WalRecord::Truncate {
                    table: "points".into(),
                },
                GOLDEN_TRUNCATE,
            ),
        ];
        for (record, golden) in &records {
            assert_eq!(encode_record(record), unhex(golden), "{record:?}");
            assert_eq!(&decode_record(&unhex(golden)).unwrap(), record);
        }
    }

    /// Tag 5, the row-wise `PutTable` of the first format, is retired: its
    /// decoder would be a second way to rebuild a table.
    #[test]
    fn the_retired_put_table_tag_is_refused_by_name() {
        let mut payload = vec![5u8];
        put_str(&mut payload, "points");
        match decode_record(&payload) {
            Err(EngineError::Storage { message }) => assert!(message.contains("tag 5")),
            other => panic!("expected a storage error, got {other:?}"),
        }
    }

    /// `PutTable` carries a table as it is stored: segment count, chunk
    /// layout, distribution and round-robin cursor all come back.
    #[test]
    fn put_table_round_trips_layout_metadata_and_cursor() {
        let schema = Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("s", ColumnType::Text),
        ]);
        let mut table = Table::with_distribution(schema, 3, Distribution::HashColumn("id".into()))
            .unwrap()
            .with_chunk_capacity(2)
            .unwrap();
        for i in 0..11i64 {
            table
                .insert(Row::new(vec![Value::Int(i), Value::Text(format!("r{i}"))]))
                .unwrap();
        }
        for replace in [false, true] {
            let record = WalRecord::PutTable {
                name: "lookup".into(),
                replace,
                table: table.clone(),
            };
            let decoded = decode_record(&encode_record(&record)).unwrap();
            assert_eq!(decoded, record);
        }
        // Out-of-range metadata is a typed error, not a later panic.
        let segments = |n: usize| (0..n).map(|_| Segment::from_chunks(Vec::new())).collect();
        let meta = |capacity, cursor| {
            (
                table.schema().clone(),
                Distribution::RoundRobin,
                capacity,
                cursor,
            )
        };
        assert!(assemble_table(meta(2, 1), segments(2)).is_ok());
        assert!(assemble_table(meta(0, 1), segments(2)).is_err());
        assert!(assemble_table(meta(2, 2), segments(2)).is_err());
        assert!(assemble_table(meta(2, 0), segments(0)).is_err());
    }

    #[test]
    fn manifest_round_trips_atomically() {
        let dir = std::env::temp_dir().join(format!("madlib_manifest_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_manifest(&dir).unwrap().is_none());
        let manifest = Manifest {
            epoch: 5,
            wal_offset: 1234,
            num_segments: 4,
            next_file_id: 7,
            tables: vec![ManifestTable {
                name: "t".into(),
                file_id: 2,
                schema: Schema::new(vec![Column::new("v", ColumnType::Double)]),
                distribution: Distribution::RoundRobin,
                chunk_capacity: 8,
                next_round_robin: 1,
                segments: vec![
                    ManifestSegment {
                        persisted_chunks: 3,
                        tail: Some(sample_tail()),
                    },
                    ManifestSegment {
                        persisted_chunks: 0,
                        tail: None,
                    },
                ],
            }],
        };
        write_manifest(&dir, &manifest).unwrap();
        let loaded = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.wal_offset, 1234);
        assert_eq!(loaded.tables.len(), 1);
        assert_eq!(loaded.tables[0].segments[0].persisted_chunks, 3);
        assert_eq!(loaded.tables[0].segments[0].tail.as_ref().unwrap().len(), 1);
        // A flipped byte inside the manifest is a hard error.
        let path = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_tail() -> RowChunk {
        let schema = Schema::new(vec![Column::new("v", ColumnType::Double)]);
        let mut chunk = RowChunk::new(&schema);
        chunk
            .push_values(Row::new(vec![Value::Double(2.5)]).values())
            .unwrap();
        chunk
    }

    #[test]
    fn chunk_files_append_and_recover() {
        let dir =
            std::env::temp_dir().join(format!("madlib_chunkfile_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = chunk_path(&dir, 1, 0);
        std::fs::remove_file(&path).ok();
        let a = Arc::new(sample_chunk());
        let b = Arc::new(sample_tail());
        append_chunks(&path, &[Arc::clone(&a)]).unwrap();
        append_chunks(&path, &[Arc::clone(&b)]).unwrap();
        let chunks = read_chunks(&path, 2).unwrap();
        assert_eq!(chunks[0].len(), a.len());
        assert_eq!(chunks[1].len(), b.len());
        // Extra frames beyond the requested count (a checkpoint that crashed
        // before installing its manifest leaves them behind) are not
        // returned — and are cut off the file, so that the next append
        // lands directly behind the counted ones.
        let two_frames = std::fs::metadata(&path).unwrap().len();
        assert_eq!(read_chunks(&path, 1).unwrap().len(), 1);
        let one_frame = frame(&encode_chunk(&a)).unwrap().len() as u64;
        assert!(one_frame < two_frames);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), one_frame);
        // Fewer valid frames than requested is corruption.
        assert!(read_chunks(&path, 3).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
