//! On-disk formats and snapshot persistence for the durability layer.
//!
//! Three kinds of files live in a database directory, all built from one
//! checksummed frame codec — `[u32 payload length][u64 checksum][payload]`,
//! the checksum a word-wise [`checksum64`] of the payload.  [`put_frame`] is
//! the one writer: it encodes a payload straight behind a reserved header
//! and back-fills length and sum, so a durable byte is copied once between
//! the table and `write`.  [`FrameReader`] is the one reader: it streams a
//! file frame by frame through one reused buffer, checks each untrusted
//! length against the file before allocating for it, and keeps a failed
//! `read` (an error) apart from a short or sum-failing frame (the end of the
//! frames).
//!
//! * **`wal.log`** — the write-ahead log ([`crate::wal`]).  Each frame's
//!   payload is a [`WalRecord`], one logged mutation, led by its tag:
//!   1. `CreateTable` — name, schema, distribution, chunk capacity;
//!   2. `DropTable` — name;
//!   3. *retired* — the row-wise `Append`, a batch's rows value by value
//!      through a value codec nothing else used (now tag 7);
//!   4. `Truncate` — table;
//!   5. *retired* — the row-wise `PutTable` of the first format (now tag 6).
//!      No released log holds a retired tag, and its decoder would be a
//!      second way to rebuild rows, so a log that does is refused with a
//!      typed error naming the tag, the directory left as found; there is no
//!      upgrade path;
//!   6. `PutTable` (`register_table` / `replace_table`) — name, a `replace`
//!      flag (register must not find the name, replace must), the table
//!      metadata (schema, distribution, chunk capacity, round-robin cursor
//!      — the same bytes the manifest stores per table), then per segment
//!      its chunk count and each chunk length-prefixed in the chunk-file
//!      encoding.  The table travels as it is stored: no row is
//!      materialised to log it, and replay reassembles it with the
//!      constructor the manifest load uses;
//!   7. `Append` (`append_rows`) — table, a chunk count, then the batch as
//!      the chunks `append_rows` transposed it into once, each
//!      length-prefixed in the chunk-file encoding.  Replay appends the
//!      decoded chunks as the live call appended them: no row is built on
//!      either side of the log.
//! * **`table_<id>_seg_<n>.chunks`** — per-segment snapshot files.  Each
//!   frame's payload is one serialized sealed [`RowChunk`] (column-major
//!   buffers, null-bitmap words, array offset tables; `f64`s stored as raw
//!   bits so recovery is bit-identical).  A sealed chunk is immutable by
//!   construction, so checkpoints *append* each newly sealed chunk exactly
//!   once and never rewrite a file — unless the table's generation changed
//!   (truncate/replace), which starts a fresh file id.
//! * **`MANIFEST`** — the checkpoint root.  Its first frame is the manifest
//!   proper: WAL epoch + replay offset, per table the schema, distribution,
//!   chunk capacity, round-robin cursor, per-segment persisted-chunk counts
//!   and the (possibly open) tail chunk inline, and last the names of the
//!   persisted views.  Behind it follows one **view frame** per name, in
//!   that order: view name, source table, the aggregate's state fingerprint,
//!   and per source segment the watermark (absorbed chunks, absorbed rows of
//!   the tail chunk) and the encoded state
//!   ([`crate::Aggregate::encode_state`] through [`StateWriter`]).
//!   Written to `MANIFEST.tmp`, fsynced, renamed, then the directory is
//!   fsynced — so the manifest is always either the old or the new
//!   checkpoint, never torn.
//!
//! Tables are data and views are derived from them, and damage is answered
//! accordingly: a manifest frame that fails its checksum or its decode is a
//! typed error, a **view frame that does is dropped** — counted in the
//! [`crate::database::RecoveryReport`], its view rebuilt from the table by
//! the first absorb, as if it had never been persisted.  Frame boundaries
//! behind a failed frame cannot be trusted, so the views behind it go too.
//!
//! `wal.log` and `MANIFEST` open with a magic naming their format version,
//! `MADWAL02` / `MADMAN04`.  `MADWAL02` is the word-wise checksum (version 1
//! summed frames with a per-byte FNV-1a; lengths and payload bytes did not
//! change); `MADMAN03` added the view names and view frames (version 2 had
//! the manifest frame alone), and `MADMAN04` keeps one state per segment in
//! a view frame (version 3 also stored a steal granularity and a list of
//! unit states per segment).  A file of any other version is **refused
//! with a typed error naming the version**, and the directory is left as
//! found — a version mismatch must not end as "no usable log", which
//! recovery answers by continuing from the snapshot alone and dropping the
//! committed tail.  There is no upgrade path: chunk files are headerless and
//! append-only, so an upgraded directory would mix frames of both sums in
//! one file, and no released database exists.
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
//! to the end of its last counted frame, and a segment with no counted
//! chunk starts its file anew ([`clear_chunk_file`]).  Loading only *finds*
//! the cut points ([`ChunkFileCut`]); they are applied, with the cut of the
//! log's torn tail, once every record of the log has decoded and applied —
//! a directory recovery refuses is byte for byte what it was.  After a
//! successful [`crate::Database::open`], and before any append to it, no
//! chunk file holds a byte the manifest does not account for.

use crate::chunk::{ColumnChunk, NullBitmap, RowChunk, Segment};
use crate::database::Recovered;
use crate::error::{EngineError, Result};
use crate::materialize::{ViewImage, Watermark};
use crate::schema::{Column, ColumnType, Schema};
use crate::table::{Distribution, Table};
use crate::wal::Wal;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

/// File magic identifying a manifest and its format version.
const MANIFEST_MAGIC: &[u8; 8] = b"MADMAN04";

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// Bytes of a frame header: payload length (4) + payload checksum (8).
const FRAME_HEADER_LEN: usize = 12;

const CHECKSUM_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

/// One lane step: xor the word in, multiply by an odd constant, fold the
/// high half down.  Each of the three is a bijection of the lane, so two
/// inputs that differ in one word leave that word's lane different.
#[inline(always)]
fn checksum_step(lane: u64, word: u64) -> u64 {
    let lane = (lane ^ word).wrapping_mul(0xff51_afd7_ed55_8ccd);
    lane ^ (lane >> 32)
}

/// Folds the four lanes and the input length into the checksum.  The lanes
/// meet by xor, so a change to exactly one of them always changes the sum.
fn checksum_finish(lanes: [u64; 4], len: usize) -> u64 {
    let [a, b, c, d] = lanes;
    let folded = a ^ b.rotate_left(16) ^ c.rotate_left(32) ^ d.rotate_left(48);
    checksum_step(checksum_step(folded, len as u64), 0)
}

/// Steps the leading lanes with one word each.
#[inline(always)]
fn checksum_absorb(lanes: &mut [u64; 4], words: &[[u8; 8]]) {
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = checksum_step(*lane, u64::from_le_bytes(*word));
    }
}

/// The record checksum: the input's little-endian `u64` words dealt round
/// robin onto four independent multiply-xor-shift lanes (four multiplies in
/// flight, eight bytes each, instead of one dependent multiply per byte),
/// the sub-word tail zero-padded into a last word, and the length mixed in
/// so the padding is unambiguous.  Not cryptographic; it detects torn writes
/// and random corruption, which is the failure model here — any change
/// confined to one word, a single flipped bit included, is always detected.
pub(crate) fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = CHECKSUM_SEEDS;
    let (blocks, rest) = bytes.as_chunks::<32>();
    for block in blocks {
        checksum_absorb(&mut lanes, block.as_chunks().0);
    }
    // Under four words are left, so they land on lanes 0.. in order and the
    // tail on the lane behind them, as the round robin would have it.
    let (words, tail) = rest.as_chunks();
    checksum_absorb(&mut lanes, words);
    if !tail.is_empty() {
        let mut word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        lanes[words.len()] = checksum_step(lanes[words.len()], u64::from_le_bytes(word));
    }
    checksum_finish(lanes, bytes.len())
}

/// Appends one `[u32 len][u64 checksum][payload]` frame to `out`: reserves
/// the header, lets `encode` write the payload straight behind it, then
/// back-fills length and sum — the payload is written once, where it will
/// be handed to `write`.  Every byte that reaches disk passes through here,
/// so this is the format's one checked narrowing (see [`count_u32`]).
///
/// # Errors
/// Returns [`EngineError::Storage`] for a payload the `u32` length prefix
/// cannot describe — written with a wrapped length it would be unreadable.
pub(crate) fn put_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    encode(out);
    let (header, payload) = out[at..].split_at_mut(FRAME_HEADER_LEN);
    let len = u32::try_from(payload.len()).map_err(|_| {
        let what = format!("{} bytes do not fit the u32 length prefix", payload.len());
        EngineError::storage("frame payload", what)
    })?;
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&checksum64(payload).to_le_bytes());
    Ok(())
}

/// Streams the frames of one file, in order, through one reused payload
/// buffer: each payload is read once, verified, and handed to its decoder
/// while it is still in cache.
pub(crate) struct FrameReader {
    file: BufReader<File>,
    /// The context a failed `open`, `read` or `seek` is reported under.
    what: &'static str,
    /// The file's length when opened: what every untrusted length prefix is
    /// checked against before anything is allocated for it.
    len: u64,
    /// Offset one past the last byte handed out.
    pos: u64,
    payload: Vec<u8>,
}

impl FrameReader {
    /// Opens the file at `path`; `None` when there is none.
    pub(crate) fn open(path: &Path, what: &'static str) -> Result<Option<Self>> {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(EngineError::storage(what, e)),
        };
        let meta = file.metadata().map_err(|e| EngineError::storage(what, e))?;
        // A directory opens too, and reports a length no read will honour.
        if !meta.is_file() {
            return Err(EngineError::storage(what, "not a regular file"));
        }
        Ok(Some(Self {
            file: BufReader::new(file),
            what,
            len: meta.len(),
            pos: 0,
            payload: Vec::new(),
        }))
    }

    /// The file's length when opened.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Offset one past the last valid frame (or file header) read.
    pub(crate) fn pos(&self) -> u64 {
        self.pos
    }

    /// Moves to byte offset `pos`, where the caller knows a frame starts.
    pub(crate) fn seek(&mut self, pos: u64) -> Result<()> {
        self.file
            .seek(SeekFrom::Start(pos))
            .map_err(|e| EngineError::storage(self.what, e))?;
        self.pos = pos;
        Ok(())
    }

    /// The next `N` bytes — a file's magic or header — when it holds them.
    pub(crate) fn header<const N: usize>(&mut self) -> Result<Option<[u8; N]>> {
        if self.len.saturating_sub(self.pos) < N as u64 {
            return Ok(None);
        }
        let mut out = [0; N];
        self.file
            .read_exact(&mut out)
            .map_err(|e| EngineError::storage(self.what, e))?;
        self.pos += N as u64;
        Ok(Some(out))
    }

    /// The next frame's payload, or `None` when no further valid frame
    /// follows: end of file, a short (torn) frame, or a checksum mismatch.
    /// Scanning must stop there — frame boundaries behind an invalid frame
    /// cannot be trusted — and [`FrameReader::pos`] stays at its start.
    pub(crate) fn next(&mut self) -> Result<Option<&[u8]>> {
        let start = self.pos;
        let Some([a, b, c, d, sum @ ..]) = self.header::<FRAME_HEADER_LEN>()? else {
            return Ok(None);
        };
        // Not a frame until its payload has verified.
        self.pos = start;
        let len = u32::from_le_bytes([a, b, c, d]);
        let end = start + FRAME_HEADER_LEN as u64 + u64::from(len);
        if end > self.len {
            return Ok(None);
        }
        // Grows to the largest frame only, and only once the file has been
        // seen to hold that many bytes; a shorter payload reuses its front.
        self.payload.resize(len as usize, 0);
        self.file
            .read_exact(&mut self.payload)
            .map_err(|e| EngineError::storage(self.what, e))?;
        if checksum64(&self.payload) != u64::from_le_bytes(sum) {
            return Ok(None);
        }
        self.pos = end;
        Ok(Some(&self.payload))
    }
}

/// Whether `found` is `expected`, this build's magic for `file`.
///
/// # Errors
/// The same file kind at another format version is refused by name rather
/// than read as damage: recovery answers a damaged log by continuing from
/// the snapshot alone, which for a readable log of another version would
/// silently drop its committed tail.  There is no upgrade path — chunk files
/// are headerless and append-only, so an upgraded directory would mix frames
/// of both checksums in one file — and no released database to upgrade.
pub(crate) fn check_magic(file: &str, found: &[u8; 8], expected: &[u8; 8]) -> Result<bool> {
    if found == expected || found[..6] != expected[..6] {
        return Ok(found == expected);
    }
    let version = |magic: &[u8; 8]| String::from_utf8_lossy(&magic[6..]).into_owned();
    Err(EngineError::Storage {
        message: format!(
            "{file} is format version {}; this build reads only version {}",
            version(found),
            version(expected)
        ),
    })
}

/// The `N` bytes at `pos`, when the buffer holds that many: the one
/// fixed-size read under [`ByteReader`].
fn array_at<const N: usize>(bytes: &[u8], pos: usize) -> Option<[u8; N]> {
    bytes.get(pos..)?.first_chunk().copied()
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
/// [`put_frame`] refuses it before anything is queued.
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

/// One stored element type: what an element of a [`ColumnChunk`] buffer
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
// Array offsets and watermarks, `u64` on disk.
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

/// Opaque bytes (an encoded state, a fingerprint) behind their length.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_count(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn read_bytes(r: &mut ByteReader<'_>) -> Result<Vec<u8>> {
    let n = r.u32()? as usize;
    r.take(n).map(<[u8]>::to_vec)
}

// ---------------------------------------------------------------------------
// Aggregate state codec
// ---------------------------------------------------------------------------

/// What an [`crate::Aggregate`] writes a persisted state and its fingerprint
/// through: the engine's element codec, little-endian, `f64`s as raw bits,
/// so a decoded state is the encoded one bit for bit.
#[derive(Debug, Default)]
pub struct StateWriter {
    bytes: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        v.put(&mut self.bytes);
    }

    /// Writes an `f64` as its raw bits (NaN payloads and `-0.0` survive).
    pub fn put_f64(&mut self, v: f64) {
        v.put(&mut self.bytes);
    }

    /// Writes a string behind its byte length.
    pub fn put_str(&mut self, s: &str) {
        put_str(&mut self.bytes, s);
    }

    /// Writes a run of `f64`s behind its count.
    pub fn put_f64s(&mut self, values: &[f64]) {
        put_counted(&mut self.bytes, values);
    }

    /// Writes a collection count, for [`StateReader::count`].
    pub fn put_count(&mut self, n: usize) {
        put_count(&mut self.bytes, n);
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// What a persisted state is read back through.  Every read is checked
/// against the bytes left and fails with a typed error instead of
/// panicking, and no count allocates more elements than those bytes hold.
pub struct StateReader<'a> {
    r: ByteReader<'a>,
}

impl<'a> StateReader<'a> {
    /// A reader over the bytes a [`StateWriter`] produced.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            r: ByteReader::new(bytes),
        }
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    /// A storage error when the bytes run out.
    pub fn u64(&mut self) -> Result<u64> {
        self.r.u64()
    }

    /// Reads an `f64` from its raw bits.
    ///
    /// # Errors
    /// A storage error when the bytes run out.
    pub fn f64(&mut self) -> Result<f64> {
        f64::read(&mut self.r)
    }

    /// Reads a string.
    ///
    /// # Errors
    /// A storage error when the bytes run out or are not UTF-8.
    pub fn str(&mut self) -> Result<String> {
        self.r.str()
    }

    /// Reads a run of `f64`s.
    ///
    /// # Errors
    /// A storage error when the bytes left cannot hold the stored count.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        read_counted(&mut self.r)
    }

    /// Reads a count written by [`StateWriter::put_count`] of elements that
    /// each take at least `min_element_bytes` bytes.
    ///
    /// # Errors
    /// A storage error when the bytes left cannot hold that many elements.
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize> {
        self.r.count(min_element_bytes)
    }

    /// Refuses bytes left over behind a decoded state.
    pub(crate) fn finish(&self) -> Result<()> {
        self.r.finish()
    }
}

// ---------------------------------------------------------------------------
// Schema / distribution codecs
// ---------------------------------------------------------------------------

/// Pushes a tag and hands the buffer on to the encoder of what it tags.
fn tagged(out: &mut Vec<u8>, tag: u8) -> &mut Vec<u8> {
    out.push(tag);
    out
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

/// Writes a chunk — a chunk-file payload: row count, arity, then each
/// column's buffers.
fn put_chunk(out: &mut Vec<u8>, chunk: &RowChunk) {
    put_count(out, chunk.len());
    put_count(out, chunk.arity());
    for column in chunk.columns() {
        put_column(out, column);
    }
}

/// Decodes a chunk written by [`put_chunk`] — a chunk-file payload —
/// validating that every column covers exactly the declared row count.
fn decode_chunk(payload: &[u8]) -> Result<RowChunk> {
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
/// segment): its byte length, then the [`put_chunk`] bytes.
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

/// A run of nested chunks (a `PutTable` segment, an `Append` batch) behind
/// its count.
fn put_sized_chunks<C: Borrow<RowChunk>>(out: &mut Vec<u8>, chunks: &[C]) {
    put_count(out, chunks.len());
    for chunk in chunks {
        put_sized_chunk(out, chunk.borrow());
    }
}

fn read_sized_chunks<C: From<RowChunk>>(r: &mut ByteReader<'_>) -> Result<Vec<C>> {
    // A nested chunk is at least its length prefix and header.
    let chunks = 0..r.count(12)?;
    chunks.map(|_| read_sized_chunk(r).map(C::from)).collect()
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
    Ok(Table::from_segments(
        Arc::new(schema),
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
        /// The appended rows, in insertion order, as the chunks (of at most
        /// the table's chunk capacity) they were transposed into.
        chunks: Vec<RowChunk>,
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

/// Writes a WAL record payload.
pub(crate) fn put_record(out: &mut Vec<u8>, record: &WalRecord) {
    match record {
        WalRecord::CreateTable {
            name,
            schema,
            distribution,
            chunk_capacity,
        } => {
            out.push(1);
            put_str(out, name);
            put_schema(out, schema);
            put_distribution(out, distribution);
            put_u64(out, *chunk_capacity);
        }
        WalRecord::DropTable { name } => put_str(tagged(out, 2), name),
        WalRecord::Append { table, chunks } => {
            put_str(tagged(out, 7), table);
            put_sized_chunks(out, chunks);
        }
        WalRecord::Truncate { table } => put_str(tagged(out, 4), table),
        WalRecord::PutTable {
            name,
            replace,
            table,
        } => {
            put_str(tagged(out, 6), name);
            replace.put(out);
            put_table_meta(
                out,
                table.schema(),
                table.distribution(),
                table.chunk_capacity() as u64,
                table.next_round_robin() as u64,
            );
            put_count(out, table.num_segments());
            for segment in 0..table.num_segments() {
                put_sized_chunks(out, table.segment(segment).chunks());
            }
        }
    }
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
        3 => {
            return Err(corrupt(
                "wal record tag 3: the row-wise Append is retired (now tag 7)",
            ))
        }
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
                segments.push(Segment::from_chunks(read_sized_chunks(&mut r)?));
            }
            WalRecord::PutTable {
                name,
                replace,
                table: assemble_table(meta, segments)?,
            }
        }
        7 => WalRecord::Append {
            table: r.str()?,
            chunks: read_sized_chunks(&mut r)?,
        },
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

/// One persisted view: a frame of its own behind the manifest frame.
#[derive(Debug, Clone)]
pub(crate) struct ManifestView {
    /// View name.
    pub name: String,
    /// The table the view watches — one of the manifest's tables.
    pub source: String,
    /// The retained states.  Its generation is not stored: a loaded view
    /// describes the incarnation of its source the same manifest holds.
    pub image: ViewImage,
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
    /// The views persisted with the tables, by name.
    pub views: Vec<ManifestView>,
    /// Names of the view frames a read dropped as damaged.
    pub damaged_views: Vec<String>,
}

/// A view frame's payload: name, source, fingerprint, then per segment the
/// watermark and the state behind its length.
fn put_view(out: &mut Vec<u8>, view: &ManifestView) {
    put_str(out, &view.name);
    put_str(out, &view.source);
    let image = &view.image;
    put_bytes(out, &image.fingerprint);
    put_count(out, image.segments.len());
    for (watermark, state) in &image.segments {
        watermark.absorbed_chunks.put(out);
        watermark.tail_rows.put(out);
        put_bytes(out, state);
    }
}

/// Decodes a view frame's payload; the image's generation is left 0 for the
/// loader to stamp.
fn decode_view(payload: &[u8]) -> Result<ManifestView> {
    let mut r = ByteReader::new(payload);
    let name = r.str()?;
    let source = r.str()?;
    let fingerprint = read_bytes(&mut r)?;
    // A segment is at least its watermark and its state's length.
    let segments = (0..r.count(20)?)
        .map(|_| {
            let watermark = Watermark {
                absorbed_chunks: usize::read(&mut r)?,
                tail_rows: usize::read(&mut r)?,
            };
            Ok((watermark, read_bytes(&mut r)?))
        })
        .collect::<Result<_>>()?;
    r.finish()?;
    Ok(ManifestView {
        name,
        source,
        image: ViewImage {
            fingerprint,
            generation: 0,
            segments,
        },
    })
}

fn put_manifest(out: &mut Vec<u8>, m: &Manifest) {
    put_u64(out, m.epoch);
    put_u64(out, m.wal_offset);
    put_u64(out, m.num_segments);
    put_u64(out, m.next_file_id);
    put_count(out, m.tables.len());
    for t in &m.tables {
        put_str(out, &t.name);
        put_u64(out, t.file_id);
        put_table_meta(
            out,
            &t.schema,
            &t.distribution,
            t.chunk_capacity,
            t.next_round_robin,
        );
        put_count(out, t.segments.len());
        for s in &t.segments {
            put_u64(out, s.persisted_chunks);
            match &s.tail {
                None => out.push(0),
                Some(chunk) => put_sized_chunk(tagged(out, 1), chunk),
            }
        }
    }
    // The view frames that follow, in order.
    put_count(out, m.views.len());
    for view in &m.views {
        put_str(out, &view.name);
    }
}

/// Decodes the manifest frame, returning with it the names of the view
/// frames that follow it.
fn decode_manifest(payload: &[u8]) -> Result<(Manifest, Vec<String>)> {
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
    let views = read_counted(&mut r)?;
    r.finish()?;
    let manifest = Manifest {
        epoch,
        wal_offset,
        num_segments,
        next_file_id,
        tables,
        views: Vec::new(),
        damaged_views: Vec::new(),
    };
    Ok((manifest, views))
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

/// Atomically installs a new manifest — the manifest frame, then one frame
/// per view: write to `MANIFEST.tmp`, fsync, rename over `MANIFEST`, fsync
/// the directory.
pub(crate) fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<()> {
    let mut bytes = MANIFEST_MAGIC.to_vec();
    put_frame(&mut bytes, |out| put_manifest(out, manifest))?;
    for view in &manifest.views {
        put_frame(&mut bytes, |out| put_view(out, view))?;
    }
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
/// A view frame that fails its checksum or its decode is not an error: its
/// name goes to [`Manifest::damaged_views`], and so do the names of every
/// view behind a frame whose checksum failed, since frame boundaries behind
/// it cannot be trusted.
///
/// # Errors
/// A present-but-invalid manifest frame is a hard [`EngineError::Storage`]
/// error: manifest installation is atomic, so corruption here means real
/// data loss that must not be silently ignored — and so are bytes behind
/// the last view frame.  One of another format version is refused by name
/// ([`check_magic`]).
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<Manifest>> {
    let Some(mut frames) = FrameReader::open(&manifest_path(dir), "read manifest")? else {
        return Ok(None);
    };
    match frames.header()? {
        Some(magic) if check_magic("MANIFEST", &magic, MANIFEST_MAGIC)? => {}
        _ => return Err(corrupt("manifest magic")),
    }
    let Some((mut manifest, names)) = frames.next()?.map(decode_manifest).transpose()? else {
        return Err(corrupt("manifest frame"));
    };
    let mut intact = true;
    for name in names {
        let view = match intact {
            true => frames.next()?.map(decode_view),
            false => None,
        };
        match view {
            Some(Ok(view)) if view.name == name => manifest.views.push(view),
            Some(_) => manifest.damaged_views.push(name),
            None => {
                intact = false;
                manifest.damaged_views.push(name);
            }
        }
    }
    if intact && frames.pos() != frames.len() {
        return Err(corrupt("manifest frame"));
    }
    Ok(Some(manifest))
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
        put_frame(&mut buf, |out| put_chunk(out, chunk))?;
    }
    (&file)
        .write_all(&buf)
        .and_then(|_| file.sync_all())
        .map_err(|e| EngineError::storage("append chunk file", e))
}

/// A chunk file to cut back to `len` bytes: it holds frames the manifest
/// does not count.
pub(crate) type ChunkFileCut = (PathBuf, u64);

/// Reads the first `count` chunks back from a segment chunk file.  It may
/// hold *more* frames than the manifest counts (a checkpoint that crashed
/// after appending chunks but before installing its manifest); chunks are
/// addressed by frame ordinal, so the extras must be gone before the next
/// checkpoint appends behind them — the reader only reports them, as a
/// [`ChunkFileCut`] pushed onto `cuts`, so that a recovery that is refused
/// further on has changed no file.  Fewer valid frames than `count` is
/// corruption; a failed `read` is an I/O error.
fn read_chunks(
    path: &Path,
    count: usize,
    cuts: &mut Vec<ChunkFileCut>,
) -> Result<Vec<Arc<RowChunk>>> {
    let Some(mut frames) = FrameReader::open(path, "read chunk file")? else {
        return match count {
            0 => Ok(Vec::new()),
            _ => Err(EngineError::storage("read chunk file", "no such file")),
        };
    };
    let mut chunks = Vec::new();
    while chunks.len() < count {
        let Some(payload) = frames.next()? else {
            return Err(corrupt(&format!(
                "chunk file {} holds {} valid chunks, manifest expects {count}",
                path.display(),
                chunks.len()
            )));
        };
        chunks.push(Arc::new(decode_chunk(payload)?));
    }
    if frames.pos() < frames.len() {
        cuts.push((path.to_path_buf(), frames.pos()));
    }
    Ok(chunks)
}

/// Applies a [`ChunkFileCut`] and fsyncs the file.
pub(crate) fn cut_chunk_file((path, len): &ChunkFileCut) -> Result<()> {
    OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|file| file.set_len(*len).and_then(|_| file.sync_all()))
        .map_err(|e| EngineError::storage("trim chunk file", e))
}

/// Rebuilds one manifest table: per segment its chunk file's persisted
/// chunks plus the manifest's tail, which is moved out of `t`.
pub(crate) fn load_table(
    dir: &Path,
    t: &mut ManifestTable,
    cuts: &mut Vec<ChunkFileCut>,
) -> Result<Table> {
    let mut segments = Vec::with_capacity(t.segments.len());
    for (segment, m) in t.segments.iter_mut().enumerate() {
        let mut chunks = read_chunks(
            &chunk_path(dir, t.file_id, segment),
            m.persisted_chunks as usize,
            cuts,
        )?;
        if let Some(tail) = m.tail.take().filter(|tail| !tail.is_empty()) {
            chunks.push(Arc::new(tail));
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
    /// What recovery loaded, and the persisted views not yet asked for.
    pub recovered: Mutex<Recovered>,
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
    use crate::value::Value;

    fn encode_chunk(chunk: &RowChunk) -> Vec<u8> {
        let mut out = Vec::new();
        put_chunk(&mut out, chunk);
        out
    }

    fn encode_record(record: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        put_record(&mut out, record);
        out
    }

    fn encode_manifest(manifest: &Manifest) -> Vec<u8> {
        let mut out = Vec::new();
        put_manifest(&mut out, manifest);
        out
    }

    fn encode_view(view: &ManifestView) -> Vec<u8> {
        let mut out = Vec::new();
        put_view(&mut out, view);
        out
    }

    /// A view over table `t` of [`sample_manifest`]: two segments, the
    /// first with a partly absorbed tail chunk.
    fn sample_view(name: &str) -> ManifestView {
        let mut state = StateWriter::new();
        state.put_f64(-0.0);
        state.put_f64s(&[1.5, f64::NAN]);
        let watermark = |absorbed_chunks, tail_rows| Watermark {
            absorbed_chunks,
            tail_rows,
        };
        ManifestView {
            name: name.into(),
            source: "t".into(),
            image: ViewImage {
                fingerprint: b"sum(v)".to_vec(),
                generation: 0,
                segments: vec![
                    (watermark(3, 1), state.into_bytes()),
                    (watermark(0, 0), Vec::new()),
                ],
            },
        }
    }

    fn sample_manifest(views: Vec<ManifestView>) -> Manifest {
        Manifest {
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
            views,
            damaged_views: Vec::new(),
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_frame(&mut out, |out| out.extend_from_slice(payload)).unwrap();
        out
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("madlib_{tag}_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The checksum as its definition reads: one word at a time, word `i`
    /// onto lane `i % 4`, the tail zero-padded into a last word.
    fn reference_checksum(bytes: &[u8]) -> u64 {
        let mut lanes = CHECKSUM_SEEDS;
        for (i, word) in bytes.chunks(8).enumerate() {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            lanes[i % 4] = checksum_step(lanes[i % 4], u64::from_le_bytes(padded));
        }
        checksum_finish(lanes, bytes.len())
    }

    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        };
        (0..len).map(|_| next()).collect()
    }

    #[test]
    fn checksum_is_the_word_at_a_time_reference() {
        let bytes = noise(100, 1);
        for len in 0..=bytes.len() {
            let input = &bytes[..len];
            assert_eq!(checksum64(input), reference_checksum(input), "len {len}");
        }
        for (seed, len) in [(2, 1_000), (3, 4_096), (4, 65_537), (5, 1_000_003)] {
            let input = noise(len, seed);
            // Every alignment of the block loop against the buffer.
            for skip in 0..9 {
                let input = &input[skip..];
                assert_eq!(checksum64(input), reference_checksum(input));
            }
        }
    }

    /// Exhaustive, not statistical: the lane steps are bijections and the
    /// lanes meet by xor, so a change confined to one word cannot cancel.
    #[test]
    fn checksum_sees_every_bit_flip_and_every_truncation() {
        let payload = noise(512, 7);
        let sum = checksum64(&payload);
        let mut flipped = payload.clone();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), sum, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        for len in 0..payload.len() {
            assert_ne!(checksum64(&payload[..len]), sum, "cut to {len}");
        }
        // Zero padding is told apart from zero bytes by the length.
        let sums: Vec<u64> = (0..64).map(|len| checksum64(&[0u8; 64][..len])).collect();
        for (i, a) in sums.iter().enumerate() {
            assert!(!sums[..i].contains(a), "{i} zero bytes");
        }
    }

    #[test]
    fn frame_reader_stops_at_torn_and_failing_frames_without_allocating() {
        let dir = temp_dir("framereader");
        let path = dir.join("frames");
        assert!(FrameReader::open(&path, "read test").unwrap().is_none());

        let mut bytes = frame(b"alpha");
        bytes.extend(frame(b""));
        bytes.extend(frame(&noise(10_000, 9)));
        let full = bytes.len() as u64;
        std::fs::write(&path, &bytes).unwrap();
        let mut frames = FrameReader::open(&path, "read test").unwrap().unwrap();
        assert_eq!(frames.next().unwrap(), Some(&b"alpha"[..]));
        assert_eq!(frames.next().unwrap(), Some(&b""[..]));
        assert_eq!(frames.next().unwrap().map(<[u8]>::len), Some(10_000));
        assert_eq!(frames.next().unwrap(), None);
        assert_eq!((frames.pos(), frames.len()), (full, full));

        // A flipped payload byte and a torn third frame both end the frames
        // behind the second, and are not errors.
        let second_end = (2 * FRAME_HEADER_LEN + 5) as u64;
        for damage in [0, 1] {
            let mut damaged = bytes.clone();
            match damage {
                0 => damaged[second_end as usize + 500] ^= 1,
                _ => damaged.truncate(bytes.len() - 1),
            }
            std::fs::write(&path, &damaged).unwrap();
            let mut frames = FrameReader::open(&path, "read test").unwrap().unwrap();
            while frames.next().unwrap().is_some() {}
            assert_eq!(frames.pos(), second_end);
        }

        // An untrusted length is checked against the file before anything is
        // allocated for it: `u32::MAX` in a 100-byte file costs nothing.
        let mut huge = vec![0xAB; 100];
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        let mut frames = FrameReader::open(&path, "read test").unwrap().unwrap();
        assert_eq!(frames.next().unwrap(), None);
        assert_eq!((frames.pos(), frames.payload.capacity()), (0, 0));

        // What is not a file is an I/O error under the reader's context,
        // whatever length the file system reports for it.
        match FrameReader::open(&dir, "read test") {
            Err(EngineError::Storage { message }) => assert!(message.contains("read test")),
            _ => panic!("a directory must be refused"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Column::new("b", ColumnType::Bool),
            Column::new("i", ColumnType::Int),
            Column::new("d", ColumnType::Double),
            Column::new("t", ColumnType::Text),
            Column::new("da", ColumnType::DoubleArray),
            Column::new("ia", ColumnType::IntArray),
            Column::new("ta", ColumnType::TextArray),
        ])
    }

    fn sample_rows() -> [Row; 3] {
        [
            vec![
                Value::Bool(true),
                Value::Int(7),
                Value::Double(1.5),
                Value::Text("alpha".into()),
                Value::DoubleArray(vec![1.0, -0.0, f64::NAN]),
                Value::IntArray(vec![1, 2]),
                Value::TextArray(vec!["x".into(), "y".into()]),
            ],
            vec![Value::Null; 7],
            vec![
                Value::Bool(false),
                Value::Int(-3),
                Value::Double(f64::NEG_INFINITY),
                Value::Text(String::new()),
                Value::DoubleArray(Vec::new()),
                Value::IntArray(vec![0]),
                Value::TextArray(Vec::new()),
            ],
        ]
        .map(Row::new)
    }

    /// All seven column types, a NULL row, empty arrays: one chunk.
    fn sample_chunk() -> RowChunk {
        sample_batch_of(3).remove(0)
    }

    /// The same rows as an `append_rows` batch into a table whose chunks
    /// hold two rows: a full chunk and a one-row chunk.
    fn sample_batch() -> Vec<RowChunk> {
        sample_batch_of(2)
    }

    fn sample_batch_of(capacity: usize) -> Vec<RowChunk> {
        RowChunk::transpose(&sample_schema(), sample_rows(), capacity).unwrap()
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
                chunks: {
                    let rows = [
                        vec![Value::Int(1), Value::DoubleArray(vec![1.0, 2.0])],
                        vec![Value::Null, Value::Null],
                        vec![Value::Int(3), Value::DoubleArray(Vec::new())],
                    ];
                    RowChunk::transpose(&schema, rows.map(Row::new), 2).unwrap()
                },
            },
            WalRecord::Append {
                table: "points".into(),
                chunks: Vec::new(),
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

    // Bytes PR 19's encoders (before the element codec and the shared table
    // metadata) produced for the inputs of
    // `formats_are_byte_for_byte_the_previous_encoders`, committed as the
    // guard behind "bytes on disk do not change".  Format version 2 restated
    // only the eight checksum bytes of `GOLDEN_FRAMED_TAIL` (bytes 4..12);
    // its length prefix and every payload byte are version 1's.
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
        1d00000032ebace6e527647201000000010000000200000000000004400100000000000000000000\
        00\
    ";
    // Format version 3 (`MADMAN03`) appended the names of the view frames
    // that follow the manifest frame — here one, `v` (the last nine bytes);
    // every byte before them is version 2's.  Version 4 (`MADMAN04`) changed
    // the view frame only: this payload is byte for byte version 3's.
    const GOLDEN_MANIFEST: &str = "\
        0500000000000000d204000000000000040000000000000007000000000000000100000001000000\
        74020000000000000001000000010000007602010100000076080000000000000001000000000000\
        00020000000300000000000000011d00000001000000010000000200000000000004400100000000\
        00000000000000000000000000000000010000000100000076\
    ";
    // The view frame of version 4: name, source, fingerprint, then per
    // segment its watermark and its one state behind the state's length.
    // Version 3 also wrote a steal-granularity byte after the fingerprint and
    // a unit count before a segment's states: views keep one state per
    // segment since aggregates always split a table by segment.
    const GOLDEN_VIEW: &str = "\
        010000007601000000740600000073756d2876290200000003000000000000000100000000000000\
        1c000000000000000000008002000000000000000000f83f000000000000f87f0000000000000000\
        000000000000000000000000\
    ";
    const GOLDEN_CREATE: &str = "\
        0106000000706f696e74730200000002000000696401010000007804010200000069644000000000\
        000000\
    ";
    const GOLDEN_DROP: &str = "\
        0206000000706f696e7473\
    ";
    // `Append` as of this format revision (tag 7: the batch as nested chunks),
    // and a whole WAL frame around a one-chunk `Append`.
    const GOLDEN_APPEND: &str = "\
        0706000000706f696e74730200000024010000020000000700000000010001000000020000000000\
        0000010700000000000000000000000000000001000000020000000000000002000000000000f83f\
        00000000000000000100000002000000000000000305000000616c70686100000000010000000200\
        0000000000000403000000000000000000f03f0000000000000080000000000000f87f0300000000\
        00000000000000030000000000000003000000000000000100000002000000000000000602000000\
        01000000000000000200000000000000030000000000000000000000020000000000000002000000\
        00000000010000000200000000000000050200000001000000780100000079030000000000000000\
        00000002000000000000000200000000000000010000000200000000000000c80000000100000007\
        000000000001000000000000000000000001fdffffffffffffff0100000000000000000000000200\
        0000000000f0ff010000000000000000000000030000000001000000000000000000000004000000\
        00020000000000000000000000000000000000000001000000000000000000000006010000000000\
        00000000000002000000000000000000000001000000000000000100000000000000000000000500\
        0000000200000000000000000000000000000000000000010000000000000000000000\
    ";
    const GOLDEN_FRAMED_APPEND: &str = "\
        2b0000001f17af124218d197070100000074010000001d0000000100000001000000020000000000\
        000440010000000000000000000000\
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
        assert_eq!(
            frame(&encode_chunk(&sample_tail())),
            unhex(GOLDEN_FRAMED_TAIL)
        );

        // Manifest payload, and the frame of the view it names.
        let manifest = sample_manifest(vec![sample_view("v")]);
        assert_eq!(encode_manifest(&manifest), unhex(GOLDEN_MANIFEST));
        let (mut decoded, names) = decode_manifest(&unhex(GOLDEN_MANIFEST)).unwrap();
        assert_eq!(names, ["v"]);
        decoded.views = vec![decode_view(&unhex(GOLDEN_VIEW)).unwrap()];
        assert_eq!(encode_manifest(&decoded), unhex(GOLDEN_MANIFEST));
        assert_eq!(encode_view(&manifest.views[0]), unhex(GOLDEN_VIEW));
        assert_eq!(encode_view(&decoded.views[0]), unhex(GOLDEN_VIEW));

        // The records: `Append` is tag 7 as of this revision, the other three
        // are byte for byte what they were.
        let framed = WalRecord::Append {
            table: "t".into(),
            chunks: vec![sample_tail()],
        };
        assert_eq!(frame(&encode_record(&framed)), unhex(GOLDEN_FRAMED_APPEND));
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
                    chunks: sample_batch(),
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
            // By bytes: the sample holds a NaN, which no `==` finds again.
            let decoded = decode_record(&unhex(golden)).unwrap();
            assert_eq!(encode_record(&decoded), unhex(golden));
        }
    }

    /// The decoder loop of ROADMAP item 5, for the two records that carry
    /// chunks: valid `Append` and `PutTable` payloads, mutated a byte at a
    /// time and in random bursts and handed to `decode_record` directly — the
    /// frame checksum, which would stop every one of them, bypassed.  The
    /// answer is a typed storage error or a record, never a panic; and a
    /// record that does decode re-encodes to exactly the payload's length, so
    /// nothing was built that the payload's own bytes do not account for
    /// (every count is bounded by the bytes left before anything is
    /// allocated for it: `ByteReader::bound`, `take`, `fixed_vec`).
    #[test]
    fn mutated_append_and_put_table_payloads_decode_to_typed_errors() {
        let table = {
            let distribution = Distribution::HashColumn("t".into());
            let mut table = Table::with_distribution(sample_schema(), 3, distribution)
                .unwrap()
                .with_chunk_capacity(2)
                .unwrap();
            for _ in 0..3 {
                table.insert_all(sample_rows()).unwrap();
            }
            table
        };
        let records = [
            WalRecord::Append {
                table: "points".into(),
                chunks: sample_batch(),
            },
            WalRecord::PutTable {
                name: "points".into(),
                replace: true,
                table,
            },
        ];
        for record in &records {
            each_mutation(&encode_record(record), |mutated| {
                typed_or(
                    decode_record(mutated),
                    |record| encode_record(&record),
                    mutated,
                )
            });
        }
    }

    /// The answer a decoder must give a mutated payload: a typed storage
    /// error, or a value whose re-encoding is exactly the payload's length —
    /// nothing was built that the payload's own bytes do not account for.
    fn typed_or<T>(decoded: Result<T>, encode: impl Fn(T) -> Vec<u8>, payload: &[u8]) {
        match decoded {
            Err(EngineError::Storage { .. }) => {}
            Ok(value) => assert_eq!(encode(value).len(), payload.len()),
            Err(other) => panic!("expected a storage error, got {other:?}"),
        }
    }

    /// Hands `check` every single-byte mutation of `bytes` (five values per
    /// position) and 4 000 random bursts of one to eight bytes.
    fn each_mutation(bytes: &[u8], mut check: impl FnMut(&[u8])) {
        let mut mutated = bytes.to_vec();
        for at in 0..bytes.len() {
            let byte = bytes[at];
            for replacement in [0, 0xff, byte ^ 1, byte ^ 0x80, byte.wrapping_add(1)] {
                mutated[at] = replacement;
                check(&mutated);
            }
            mutated[at] = byte;
        }
        let mut positions = noise(4 * 4_000, 11).into_iter();
        let mut values = noise(8 * 4_000, 13).into_iter();
        for _ in 0..4_000 {
            let mut mutated = bytes.to_vec();
            let at = positions
                .by_ref()
                .take(3)
                .fold(0usize, |a, b| a << 8 | b as usize);
            let burst = 1 + positions.next().unwrap() as usize % 8;
            for (slot, value) in mutated
                .iter_mut()
                .skip(at % bytes.len())
                .zip(values.by_ref().take(burst))
            {
                *slot = value;
            }
            check(&mutated);
        }
    }

    /// The same loop over the rest of what recovery decodes: a manifest
    /// frame that names a view, that view's frame, and a chunk-file chunk —
    /// the checksum bypassed.  Every count is bounded by the bytes left
    /// before anything is allocated for it.
    #[test]
    fn mutated_manifest_view_and_chunk_payloads_decode_to_typed_errors() {
        let manifest = sample_manifest(vec![sample_view("v")]);
        each_mutation(&encode_manifest(&manifest), |mutated| {
            let encode = |(mut manifest, names): (Manifest, Vec<String>)| {
                manifest.views = names.iter().map(|name| sample_view(name)).collect();
                encode_manifest(&manifest)
            };
            typed_or(decode_manifest(mutated), encode, mutated);
        });
        each_mutation(&encode_view(&manifest.views[0]), |mutated| {
            typed_or(decode_view(mutated), |view| encode_view(&view), mutated);
        });
        each_mutation(&encode_chunk(&sample_chunk()), |mutated| {
            typed_or(decode_chunk(mutated), |chunk| encode_chunk(&chunk), mutated);
        });
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
        let dir = temp_dir("manifest");
        assert!(read_manifest(&dir).unwrap().is_none());
        let manifest = sample_manifest(Vec::new());
        write_manifest(&dir, &manifest).unwrap();
        let loaded = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(loaded.epoch, 5);
        assert_eq!(loaded.wal_offset, 1234);
        assert_eq!(loaded.tables.len(), 1);
        assert_eq!(loaded.tables[0].segments[0].persisted_chunks, 3);
        assert_eq!(loaded.tables[0].segments[0].tail.as_ref().unwrap().len(), 1);
        assert!(loaded.views.is_empty() && loaded.damaged_views.is_empty());
        // A flipped byte inside the manifest is a hard error.
        let path = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_manifest(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// View frames are derived data: one that fails its checksum is dropped
    /// by name with every view behind it, one that fails its decode alone —
    /// and neither is an error.  Bytes behind the last view frame are.
    #[test]
    fn damaged_view_frames_are_dropped_by_name_not_refused() {
        let dir = temp_dir("viewframes");
        let path = dir.join("MANIFEST");
        let names = |views: &[ManifestView]| views.iter().map(|v| v.name.clone()).collect();
        let read = || {
            let m = read_manifest(&dir).unwrap().unwrap();
            (names(&m.views), m.damaged_views)
        };
        let manifest = sample_manifest(["a", "b", "c"].map(sample_view).into());
        write_manifest(&dir, &manifest).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let view_len = frame(&encode_view(&manifest.views[0])).len();
        let first_view = pristine.len() - 3 * view_len;
        assert_eq!(read(), (vec!["a".into(), "b".into(), "c".into()], vec![]));

        // A well-formed frame that does not hold the view the manifest names
        // in its place drops that view only.
        let renamed = frame(&encode_view(&sample_view("x")));
        let mut bytes = pristine.clone();
        bytes.splice(first_view + view_len..first_view + 2 * view_len, renamed);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read(), (vec!["a".into(), "c".into()], vec!["b".into()]));

        // A checksum failure in `a` takes `b` and `c` with it; a cut inside
        // `c` takes `c`.
        let mut bytes = pristine.clone();
        bytes[first_view + 20] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read(), (vec![], vec!["a".into(), "b".into(), "c".into()]));
        std::fs::write(&path, &pristine[..pristine.len() - 1]).unwrap();
        assert_eq!(read(), (vec!["a".into(), "b".into()], vec!["c".into()]));

        // A byte behind the last frame is not something a checkpoint wrote.
        let mut bytes = pristine.clone();
        bytes.push(0);
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
        let dir = temp_dir("chunkfile");
        let path = chunk_path(&dir, 1, 0);
        let a = Arc::new(sample_chunk());
        let b = Arc::new(sample_tail());
        append_chunks(&path, &[Arc::clone(&a)]).unwrap();
        append_chunks(&path, &[Arc::clone(&b)]).unwrap();
        let mut cuts = Vec::new();
        let chunks = read_chunks(&path, 2, &mut cuts).unwrap();
        assert_eq!(chunks[0].len(), a.len());
        assert_eq!(chunks[1].len(), b.len());
        assert!(cuts.is_empty());
        // Extra frames beyond the requested count (a checkpoint that crashed
        // before installing its manifest leaves them behind) are not
        // returned.  Reading leaves the file alone and reports the cut, which
        // takes them off the file, so that the next append lands directly
        // behind the counted ones.
        let two_frames = std::fs::metadata(&path).unwrap().len();
        assert_eq!(read_chunks(&path, 1, &mut cuts).unwrap().len(), 1);
        let one_frame = frame(&encode_chunk(&a)).len() as u64;
        assert!(one_frame < two_frames);
        assert_eq!(cuts, [(path.clone(), one_frame)]);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), two_frames);
        cut_chunk_file(&cuts[0]).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), one_frame);
        // Fewer valid frames than requested is corruption — also when the
        // file is not there at all; no file and no chunk expected is a
        // segment that never sealed one.
        assert!(read_chunks(&path, 3, &mut cuts).is_err());
        assert!(read_chunks(&chunk_path(&dir, 1, 1), 1, &mut cuts).is_err());
        let none = read_chunks(&chunk_path(&dir, 1, 1), 0, &mut cuts).unwrap();
        assert!(none.is_empty() && cuts.len() == 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
