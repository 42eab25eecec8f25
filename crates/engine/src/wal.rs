//! Write-ahead log with group commit.
//!
//! The log is a single append-only file: a fixed 24-byte header (the magic
//! `MADWAL03`, epoch, header checksum) followed by *records*, each framed as
//! `[u32 payload length][u64 checksum][payload]` (see [`crate::persist`] for
//! the frame codec — one writer, `put_frame`, and one streaming reader,
//! `FrameReader`, shared with the chunk files and the manifest — and for the
//! payload format).  A record is **committed** once the bytes through its
//! frame are fsynced; replay ([`LogReader::replay`]) hands each payload to
//! the decoder as it is read and stops at the first missing, short, or
//! checksum-failing frame, so a torn tail write can only ever drop a
//! *suffix* of records — never corrupt or reorder the prefix.  A header that
//! is short, of a foreign magic or failing its sum is "no usable log"; one
//! that is a WAL of **another format version** (`MADWAL01`, the per-byte
//! frame checksum; `MADWAL02`, the chunk encoding before version 3) is
//! refused with a typed error naming the version, because "no usable log"
//! would let recovery continue from the snapshot alone and silently drop
//! that log's committed tail.
//!
//! ## Group commit
//!
//! `fsync` dominates small-append latency, so concurrent committers share
//! one.  [`Wal::append`] is cheap — it serializes the frame into a pending
//! queue under the state mutex and returns a sequence-number ticket; the
//! caller performs its in-memory mutation while *holding the table lock
//! across the enqueue*, which makes WAL order identical to apply order.
//! [`Wal::wait`] then elects the first waiter as *leader*: it drains the
//! entire pending queue, writes it with a single `write` + `fdatasync`, and
//! wakes every follower whose ticket the batch covered.  Under 64 concurrent
//! appenders one fsync typically commits dozens of records; with group
//! commit disabled (the benchmark baseline) each leader flushes exactly one
//! record per fsync.
//!
//! ## Epochs
//!
//! The header carries an epoch so that checkpoint truncation is crash-safe:
//! the manifest records `(epoch, replay offset)` *before* the WAL is reset
//! to `epoch + 1`.  Recovery accepts either the manifest's epoch (replay
//! from the recorded offset) or its successor (replay from the header) and
//! rejects anything else as corruption — see [`crate::persist`].

use crate::error::{EngineError, Result};
use crate::persist::{self, FrameReader};
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// File magic identifying a WAL and its format version.
const WAL_MAGIC: &[u8; 8] = b"MADWAL03";

/// Bytes of the WAL header: magic (8) + epoch (8) + checksum (8).
pub(crate) const WAL_HEADER_LEN: u64 = 24;

fn header_bytes(epoch: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut out = [0u8; WAL_HEADER_LEN as usize];
    out[..8].copy_from_slice(WAL_MAGIC);
    out[8..16].copy_from_slice(&epoch.to_le_bytes());
    let sum = persist::checksum64(&out[..16]);
    out[16..24].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Parses a WAL header, returning its epoch; `None` when the bytes carry a
/// foreign magic or fail the checksum (recovery treats both as "no usable
/// log").
///
/// # Errors
/// A WAL magic of another format version is refused by name
/// ([`persist::check_magic`]): that log may hold a committed tail.
fn parse_header(bytes: &[u8; WAL_HEADER_LEN as usize]) -> Result<Option<u64>> {
    let (fields, _) = bytes.as_chunks::<8>();
    let &[magic, epoch, sum] = fields else {
        return Ok(None);
    };
    let usable = persist::check_magic("wal.log", &magic, WAL_MAGIC)?
        && persist::checksum64(&bytes[..16]) == u64::from_le_bytes(sum);
    Ok(usable.then_some(u64::from_le_bytes(epoch)))
}

/// An existing log with a usable header, open for replay.
pub(crate) struct LogReader {
    /// The header epoch.
    pub epoch: u64,
    frames: FrameReader,
}

/// Opens the WAL at `path` for replay: `Ok(None)` for a missing file or an
/// unusable (short / foreign-magic / checksum-failing) header.  Recovery
/// reads the epoch off the result before deciding the replay offset.
pub(crate) fn read_log(path: &Path) -> Result<Option<LogReader>> {
    let Some(mut frames) = FrameReader::open(path, "read wal")? else {
        return Ok(None);
    };
    let epoch = match frames.header()? {
        Some(header) => parse_header(&header)?,
        None => None,
    };
    Ok(epoch.map(|epoch| LogReader { epoch, frames }))
}

impl LogReader {
    /// The log file's length when opened.
    pub(crate) fn len(&self) -> u64 {
        self.frames.len()
    }

    /// Hands `each` the committed record payloads in log order, starting at
    /// byte offset `from` (callers pass the manifest's replay offset, or
    /// [`WAL_HEADER_LEN`] for the whole log), and returns the offset one
    /// past the last valid frame — the truncation point for resuming
    /// appends (anything beyond it is a torn or corrupt tail).  Bytes before
    /// `from` are not parsed: they were consumed by the checkpoint the
    /// manifest describes and may legitimately be unreadable (e.g. a flipped
    /// bit in an already-absorbed record).  The file is only read.
    pub(crate) fn replay(
        mut self,
        from: u64,
        mut each: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<u64> {
        let start = from.max(WAL_HEADER_LEN);
        // The manifest offset can exceed the surviving file length when the
        // crash truncated already-checkpointed bytes; nothing is replayable.
        if start > self.frames.len() {
            return Ok(start);
        }
        self.frames.seek(start)?;
        while let Some(payload) = self.frames.next()? {
            each(payload)?;
        }
        Ok(self.frames.pos())
    }
}

struct WalState {
    file: Arc<File>,
    epoch: u64,
    /// Bytes durably on disk (header + fsynced frames).
    durable_len: u64,
    /// Framed records awaiting flush, in ticket order.
    pending: Vec<(u64, Vec<u8>)>,
    next_seq: u64,
    durable_seq: u64,
    flushing: bool,
    group_commit: bool,
    /// First I/O failure; once set the log is poisoned and every commit
    /// fails (durability can no longer be promised).
    error: Option<String>,
}

/// A group-commit write-ahead log over one append-only file.
pub(crate) struct Wal {
    state: Mutex<WalState>,
    flushed: Condvar,
}

/// A commit ticket returned by [`Wal::append`]; pass to [`Wal::wait`].
pub(crate) type Ticket = u64;

impl Wal {
    /// Creates a fresh WAL at `path` with the given epoch, truncating any
    /// existing file.
    pub(crate) fn create(path: &Path, epoch: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| EngineError::storage("create wal", e))?;
        (&file)
            .write_all(&header_bytes(epoch))
            .and_then(|_| file.sync_all())
            .map_err(|e| EngineError::storage("init wal", e))?;
        Ok(Self::from_file(file, epoch, WAL_HEADER_LEN))
    }

    /// Reopens an existing WAL for appending, first truncating it to
    /// `valid_len` (cutting any torn tail found during recovery).
    pub(crate) fn resume(path: &Path, epoch: u64, valid_len: u64) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| EngineError::storage("open wal", e))?;
        file.set_len(valid_len)
            .and_then(|_| file.sync_all())
            .map_err(|e| EngineError::storage("truncate wal tail", e))?;
        Ok(Self::from_file(file, epoch, valid_len))
    }

    fn from_file(file: File, epoch: u64, durable_len: u64) -> Self {
        Self {
            state: Mutex::new(WalState {
                file: Arc::new(file),
                epoch,
                durable_len,
                pending: Vec::new(),
                next_seq: 1,
                durable_seq: 0,
                flushing: false,
                group_commit: true,
                error: None,
            }),
            flushed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WalState> {
        // A poisoned mutex only means another committer panicked between
        // state updates that are individually consistent; recover the guard.
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Enqueues one ready frame ([`persist::put_frame`]) and returns its commit
    /// ticket.  Only a push — the committer encoded, framed and checksummed
    /// the record before it took any lock: callers invoke this while holding
    /// the lock that orders the matching in-memory mutation, then release
    /// that lock before [`Wal::wait`].
    pub(crate) fn append(&self, frame: Vec<u8>) -> Ticket {
        let mut st = self.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        st.pending.push((seq, frame));
        seq
    }

    /// Blocks until the record behind `ticket` is fsynced (electing this
    /// thread as flush leader when none is active), or until the log is
    /// poisoned by an I/O failure.
    pub(crate) fn wait(&self, ticket: Ticket) -> Result<()> {
        let mut st = self.lock();
        loop {
            if let Some(msg) = &st.error {
                return Err(EngineError::storage("wal commit", msg));
            }
            if st.durable_seq >= ticket {
                return Ok(());
            }
            if st.flushing || st.pending.is_empty() {
                st = match self.flushed.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                continue;
            }
            let take_all = st.group_commit;
            self.flush_batch(st, take_all)?;
            st = self.lock();
        }
    }

    /// Flushes every pending record (used by checkpoint before snapshotting,
    /// regardless of the group-commit setting).
    pub(crate) fn flush_all(&self) -> Result<()> {
        loop {
            let st = self.lock();
            if let Some(msg) = &st.error {
                return Err(EngineError::storage("wal flush", msg));
            }
            if st.pending.is_empty() && !st.flushing {
                return Ok(());
            }
            if st.flushing {
                let guard = match self.flushed.wait(st) {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                drop(guard);
                continue;
            }
            self.flush_batch(st, true)?;
        }
    }

    /// Writes and fsyncs a batch from the front of the pending queue: the
    /// whole queue when `take_all`, exactly one record otherwise.  Leaders
    /// always drain from the front, so flushed sequence numbers are
    /// contiguous and `durable_seq` advances without gaps.
    fn flush_batch(&self, mut st: MutexGuard<'_, WalState>, take_all: bool) -> Result<()> {
        st.flushing = true;
        let batch: Vec<(u64, Vec<u8>)> = if take_all {
            std::mem::take(&mut st.pending)
        } else {
            vec![st.pending.remove(0)]
        };
        let file = Arc::clone(&st.file);
        drop(st);

        let mut buf = Vec::with_capacity(batch.iter().map(|(_, f)| f.len()).sum());
        for (_, frame) in &batch {
            buf.extend_from_slice(frame);
        }
        let io = (&*file).write_all(&buf).and_then(|_| file.sync_data());

        let mut st = self.lock();
        st.flushing = false;
        let result = match io {
            Ok(()) => {
                st.durable_len += buf.len() as u64;
                // Proof: both callers saw `pending` non-empty under the lock
                // this function was handed, and the batch is its front.
                st.durable_seq = batch.last().expect("non-empty batch").0;
                Ok(())
            }
            Err(e) => {
                st.error = Some(e.to_string());
                Err(EngineError::storage("wal flush", e))
            }
        };
        drop(st);
        self.flushed.notify_all();
        result
    }

    /// Resets the log to a fresh file holding only a header with
    /// `new_epoch`.  The caller (checkpoint) must have drained the pending
    /// queue via [`Wal::flush_all`] and excluded concurrent committers.
    pub(crate) fn reset(&self, new_epoch: u64) -> Result<()> {
        let mut st = self.lock();
        debug_assert!(st.pending.is_empty() && !st.flushing);
        st.file
            .set_len(0)
            // The create path opens the file in write (not append) mode, so
            // the shared cursor must be rewound after truncation.
            .and_then(|_| (&*st.file).seek(SeekFrom::Start(0)))
            .and_then(|_| (&*st.file).write_all(&header_bytes(new_epoch)))
            .and_then(|_| st.file.sync_all())
            .map_err(|e| {
                st.error = Some(e.to_string());
                EngineError::storage("reset wal", e)
            })?;
        st.epoch = new_epoch;
        st.durable_len = WAL_HEADER_LEN;
        Ok(())
    }

    /// The current header epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Bytes durably on disk (header plus fsynced frames).  This is the
    /// replay offset a checkpoint records in the manifest.
    pub(crate) fn durable_len(&self) -> u64 {
        self.lock().durable_len
    }

    /// Enables or disables group commit.  Disabled, each commit pays its own
    /// fsync — the benchmark baseline quantifying what batching buys.
    pub(crate) fn set_group_commit(&self, enabled: bool) {
        self.lock().group_commit = enabled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Frames a payload as the commit path does and enqueues it.
    fn append(wal: &Wal, payload: &[u8]) -> Ticket {
        let mut frame = Vec::new();
        persist::put_frame(&mut frame, |out| out.extend_from_slice(payload)).unwrap();
        wal.append(frame)
    }

    fn read_epoch(path: &Path) -> Option<u64> {
        read_log(path).unwrap().map(|log| log.epoch)
    }

    struct Scan {
        records: Vec<Vec<u8>>,
        valid_len: u64,
    }

    /// Every committed record of the log at `path`; nothing for a log
    /// without a usable header.
    fn scan(path: &Path) -> Scan {
        let mut records = Vec::new();
        let valid_len = read_log(path).unwrap().map_or(0, |log| {
            let each = |payload: &[u8]| {
                records.push(payload.to_vec());
                Ok(())
            };
            log.replay(WAL_HEADER_LEN, each).unwrap()
        });
        Scan { records, valid_len }
    }

    fn temp_wal(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "madlib_wal_test_{}_{tag}_{n}.log",
            std::process::id()
        ))
    }

    #[test]
    fn records_round_trip_and_survive_resume() {
        let path = temp_wal("roundtrip");
        let wal = Wal::create(&path, 1).unwrap();
        for payload in [b"alpha".as_slice(), b"b".as_slice(), b"gamma!".as_slice()] {
            let t = append(&wal, payload);
            wal.wait(t).unwrap();
        }
        let scanned = scan(&path);
        assert_eq!(read_epoch(&path), Some(1));
        assert_eq!(
            scanned.records,
            vec![b"alpha".to_vec(), b"b".to_vec(), b"gamma!".to_vec()]
        );
        assert_eq!(scanned.valid_len, wal.durable_len());
        drop(wal);

        // Resuming at the valid length keeps the committed prefix intact.
        let wal = Wal::resume(&path, 1, scanned.valid_len).unwrap();
        let t = append(&wal, b"delta");
        wal.wait(t).unwrap();
        let rescanned = scan(&path);
        assert_eq!(rescanned.records.len(), 4);
        assert_eq!(rescanned.records[3], b"delta");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_and_flipped_bytes_stop_replay_at_the_prefix() {
        let path = temp_wal("torn");
        let wal = Wal::create(&path, 1).unwrap();
        let mut ends = Vec::new();
        for i in 0..4u8 {
            let t = append(&wal, &[i; 9]);
            wal.wait(t).unwrap();
            ends.push(wal.durable_len());
        }
        drop(wal);
        let full = std::fs::read(&path).unwrap();

        // Truncation mid-record drops exactly the torn suffix.
        for cut in (ends[1] + 1)..ends[2] {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let s = scan(&path);
            assert_eq!(s.records.len(), 2, "cut at {cut}");
            assert_eq!(s.valid_len, ends[1]);
        }

        // A flipped byte in record 2 invalidates it and everything after.
        let mut flipped = full.clone();
        flipped[ends[1] as usize + 13] ^= 0xff;
        std::fs::write(&path, &flipped).unwrap();
        let s = scan(&path);
        assert_eq!(s.records.len(), 2);

        // A corrupted header makes the whole log unusable.
        let mut bad_header = full.clone();
        bad_header[3] ^= 0x01;
        std::fs::write(&path, &bad_header).unwrap();
        assert_eq!(read_epoch(&path), None);
        assert!(scan(&path).records.is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// The header is `MADWAL03`, the epoch, and the checksum of those 16
    /// bytes: version 3 moved the magic, and so its sum, alone.  Another version of the same file is not "no usable log" — it
    /// may hold a committed tail — but a refusal naming the version.
    #[test]
    fn header_bytes_are_pinned_and_another_version_is_refused_by_name() {
        let header = header_bytes(5);
        let golden = *b"MADWAL03\x05\0\0\0\0\0\0\0\xd2\x30\x38\x44\xa7\x65\xc7\x11";
        assert_eq!(header, golden);
        assert_eq!(parse_header(&header).unwrap(), Some(5));

        let path = temp_wal("version");
        for version in [b'1', b'2'] {
            let mut older = header;
            older[7] = version;
            std::fs::write(&path, older).unwrap();
            match read_log(&path) {
                Err(EngineError::Storage { message }) => {
                    let needle = format!("wal.log is format version 0{}", version as char);
                    assert!(message.contains(&needle), "{message}")
                }
                _ => panic!("a log of another version must be refused"),
            }
        }
        // A foreign magic, a failing header sum and a short header are all
        // still no usable log.
        let mut foreign = header;
        foreign[0] = b'X';
        let mut bad_sum = header;
        bad_sum[9] ^= 1;
        for bytes in [&foreign[..], &bad_sum[..], &header[..23], &[]] {
            std::fs::write(&path, bytes).unwrap();
            assert!(read_log(&path).unwrap().is_none());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_batches_concurrent_appenders() {
        let path = temp_wal("group");
        let wal = std::sync::Arc::new(Wal::create(&path, 7).unwrap());
        std::thread::scope(|scope| {
            for t in 0..8u8 {
                let wal = std::sync::Arc::clone(&wal);
                scope.spawn(move || {
                    for i in 0..16u8 {
                        let ticket = append(&wal, &[t, i]);
                        wal.wait(ticket).unwrap();
                    }
                });
            }
        });
        let s = scan(&path);
        assert_eq!(read_epoch(&path), Some(7));
        assert_eq!(s.records.len(), 8 * 16);
        // Per-thread records appear in that thread's commit order.
        for t in 0..8u8 {
            let seq: Vec<u8> = s
                .records
                .iter()
                .filter(|r| r[0] == t)
                .map(|r| r[1])
                .collect();
            assert_eq!(seq, (0..16).collect::<Vec<u8>>());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_starts_a_fresh_epoch() {
        let path = temp_wal("reset");
        let wal = Wal::create(&path, 3).unwrap();
        let t = append(&wal, b"old");
        wal.wait(t).unwrap();
        wal.flush_all().unwrap();
        wal.reset(4).unwrap();
        assert_eq!(wal.epoch(), 4);
        assert_eq!(wal.durable_len(), WAL_HEADER_LEN);
        let t = append(&wal, b"new");
        wal.wait(t).unwrap();
        let s = scan(&path);
        assert_eq!(read_epoch(&path), Some(4));
        assert_eq!(s.records, vec![b"new".to_vec()]);
        std::fs::remove_file(&path).ok();
    }
}
