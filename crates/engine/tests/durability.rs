//! Crash-fault injection for the durability layer.
//!
//! Every test follows the same shape: run a schedule of committed mutations
//! against a durable [`Database`], record a state fingerprint at each commit
//! point, simulate a crash by dropping the database and damaging the on-disk
//! WAL (truncation at arbitrary byte offsets, flipped checksum bytes, torn
//! group-commit tails), then [`Database::recover`] and assert the recovered
//! state is **bit-identical to a committed prefix** of the schedule — never
//! a partially-applied batch, never data past the damage point.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use madlib_engine::aggregate::SumAggregate;
use madlib_engine::table::Distribution;
use madlib_engine::{
    Aggregate, AnyMaterialized, Column, ColumnType, Database, EngineError, Executor,
    MaterializedAggregate, RebuildReason, Row, RowChunk, Schema, StateReader, StateWriter, Table,
    Value, ViewOutcome,
};
use proptest::prelude::*;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory under the target dir (not tmpfs, and cleaned
/// up eagerly so repeated property-test cases don't accumulate).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let id = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "madlib_durability_{tag}_{}_{id}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("id", ColumnType::Int),
        Column::new("v", ColumnType::Double),
    ])
}

fn row(id: i64, v: f64) -> Row {
    Row::new(vec![Value::Int(id), Value::Double(v)])
}

/// Bit-exact fingerprint of every table: name, schema, chunk layout per
/// segment, and each value (doubles rendered as raw bits).
fn fingerprint(db: &Database) -> String {
    let mut out = String::new();
    for name in db.list_tables() {
        let table = db.table(&name).unwrap();
        writeln!(
            out,
            "table {name} segs={} cap={} schema={:?}",
            table.num_segments(),
            table.chunk_capacity(),
            table.schema()
        )
        .unwrap();
        for seg in 0..table.num_segments() {
            let segment = table.segment(seg);
            write!(out, "  seg {seg}:").unwrap();
            for chunk in segment.chunks() {
                if chunk.is_empty() {
                    // An empty open chunk is buffer-reuse bookkeeping (kept
                    // by truncate), not state — recovery need not rebuild it.
                    continue;
                }
                write!(out, " [{}]", chunk.len()).unwrap();
                for r in 0..chunk.len() {
                    for c in 0..chunk.columns().len() {
                        match chunk.value(r, c) {
                            Value::Double(d) => write!(out, " d{:016x}", d.to_bits()),
                            Value::DoubleArray(a) => {
                                write!(out, " D").unwrap();
                                for d in &a {
                                    write!(out, "{:016x},", d.to_bits()).unwrap();
                                }
                                Ok(())
                            }
                            other => write!(out, " {other:?}"),
                        }
                        .unwrap();
                    }
                    write!(out, " |").unwrap();
                }
            }
            writeln!(out).unwrap();
        }
    }
    out
}

fn wal_file(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn wal_size(dir: &Path) -> u64 {
    std::fs::metadata(wal_file(dir)).unwrap().len()
}

fn truncate_wal(dir: &Path, len: u64) {
    let f = OpenOptions::new().write(true).open(wal_file(dir)).unwrap();
    f.set_len(len).unwrap();
    f.sync_all().unwrap();
}

fn flip_wal_byte(dir: &Path, offset: u64) {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(wal_file(dir))
        .unwrap();
    f.seek(SeekFrom::Start(offset)).unwrap();
    let mut b = [0u8];
    f.read_exact(&mut b).unwrap();
    b[0] ^= 0xff;
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&b).unwrap();
    f.sync_all().unwrap();
}

/// The schedule driver: applies `ops` one at a time, recording the WAL's
/// durable length and the state fingerprint after each commit point.
/// Returns `(durable_len, fingerprint)` pairs, index 0 = the empty database.
#[derive(Clone, Debug)]
enum Op {
    Create(&'static str),
    Append(&'static str, i64, usize),
    Truncate(&'static str),
    Drop(&'static str),
    /// `register_table` of [`hashed_table`] — a `PutTable` record.
    Register(&'static str, i64, usize),
    /// `replace_table` with [`striped_table`] — a `PutTable` record.
    Replace(&'static str, i64, usize),
}

fn rows(base: i64, n: usize) -> impl Iterator<Item = Row> {
    (0..n).map(move |i| row(base + i as i64, (base as f64) + i as f64 * 0.5))
}

/// A populated standalone table unlike anything `create_table` on the test
/// databases (2 segments, round-robin) would build: 3 segments, hashed on
/// `id`, part-filled tail chunks.  Appends after it is registered land by
/// hash, which proves the distribution came back.
fn hashed_table(base: i64, n: usize) -> Table {
    let mut table = Table::with_distribution(schema(), 3, Distribution::HashColumn("id".into()))
        .unwrap()
        .with_chunk_capacity(4)
        .unwrap();
    table.insert_all(rows(base, n)).unwrap();
    table
}

/// Its round-robin sibling: 5 segments at capacity 2, so `n` rows leave the
/// cursor at `n % 5` and appends after the replace prove it came back.
fn striped_table(base: i64, n: usize) -> Table {
    let mut table = Table::new(schema(), 5)
        .unwrap()
        .with_chunk_capacity(2)
        .unwrap();
    table.insert_all(rows(base, n)).unwrap();
    table
}

fn apply(db: &Database, op: &Op) {
    match op {
        Op::Create(name) => db
            .create_table_with_chunk_capacity(name, schema(), 4)
            .unwrap(),
        Op::Append(name, base, n) => db.append_rows(name, rows(*base, *n)).unwrap(),
        Op::Register(name, base, n) => db.register_table(name, hashed_table(*base, *n)).unwrap(),
        Op::Replace(name, base, n) => db.replace_table(name, striped_table(*base, *n)).unwrap(),
        Op::Truncate(name) => db.truncate_table(name).unwrap(),
        Op::Drop(name) => {
            db.drop_table(name).unwrap();
        }
    }
}

fn run_schedule(dir: &Path, ops: &[Op]) -> Vec<(u64, String)> {
    let db = Database::open(dir, 2).unwrap();
    let mut marks = vec![(db.wal_durable_len().unwrap(), fingerprint(&db))];
    for op in ops {
        apply(&db, op);
        marks.push((db.wal_durable_len().unwrap(), fingerprint(&db)));
    }
    marks
}

/// Recovery after truncating the WAL to an arbitrary byte offset lands
/// exactly on the longest committed prefix that fits — checked at *every*
/// byte offset of the log.
#[test]
fn truncation_at_every_offset_recovers_exact_committed_prefix() {
    let ops = [
        Op::Create("t"),
        Op::Append("t", 0, 3),
        Op::Append("t", 100, 6),
        Op::Create("u"),
        Op::Append("u", 0, 2),
        Op::Truncate("t"),
        Op::Append("t", 200, 5),
        Op::Drop("u"),
        Op::Register("r", 0, 23),
        Op::Append("r", 500, 6),
        Op::Replace("t", 300, 11),
        Op::Append("t", 400, 7),
        Op::Replace("r", 600, 3),
        Op::Append("r", 700, 4),
    ];
    let scratch = ScratchDir::new("trunc");
    let marks = run_schedule(scratch.path(), &ops);
    let full = wal_size(scratch.path());
    assert_eq!(full, marks.last().unwrap().0);

    let pristine = std::fs::read(wal_file(scratch.path())).unwrap();
    for cut in 0..=full {
        std::fs::write(wal_file(scratch.path()), &pristine).unwrap();
        truncate_wal(scratch.path(), cut);
        let recovered = Database::recover(scratch.path()).unwrap();
        // The longest commit point at or below the cut is what must survive:
        // a frame truncated mid-record contributes nothing.  A cut inside
        // the 24-byte WAL header makes the header unparseable, which is the
        // "no WAL" recovery path — the pre-WAL (empty) state.
        let expect = marks
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(_, fp)| fp.clone())
            .unwrap_or_else(|| marks[0].1.clone());
        assert_eq!(
            fingerprint(&recovered),
            expect,
            "cut at byte {cut} of {full}"
        );
    }
}

/// Flipping any byte of the WAL body must never surface data past the
/// damage: recovery lands on some committed prefix no longer than the
/// prefix preceding the flipped byte.
#[test]
fn flipped_bytes_never_surface_uncommitted_state() {
    let ops = [
        Op::Create("t"),
        Op::Append("t", 0, 4),
        Op::Append("t", 50, 4),
        Op::Append("t", 90, 4),
        Op::Register("r", 0, 11),
        Op::Append("r", 20, 3),
        Op::Replace("t", 300, 8),
        Op::Append("t", 400, 4),
    ];
    let scratch = ScratchDir::new("flip");
    let marks = run_schedule(scratch.path(), &ops);
    let full = wal_size(scratch.path());
    let pristine = std::fs::read(wal_file(scratch.path())).unwrap();
    // Skip the 24-byte header (a damaged header is the "no WAL" recovery
    // path, exercised separately below); flip every 7th byte for speed.
    for offset in (24..full).step_by(7) {
        std::fs::write(wal_file(scratch.path()), &pristine).unwrap();
        flip_wal_byte(scratch.path(), offset);
        let recovered = Database::recover(scratch.path()).unwrap();
        let fp = fingerprint(&recovered);
        let position = marks.iter().position(|(_, m)| *m == fp);
        let ceiling = marks.iter().take_while(|(len, _)| *len <= offset).count() - 1;
        match position {
            Some(i) => assert!(
                i <= ceiling,
                "flip at {offset}: recovered prefix {i} is past the damage (ceiling {ceiling})"
            ),
            None => panic!("flip at {offset}: recovered state is not any committed prefix"),
        }
    }
}

/// A torn group commit must be all-or-nothing per batch: concurrent
/// appenders each commit multi-row batches, and after truncating the WAL at
/// arbitrary offsets no recovered table ever holds a partial batch.
#[test]
fn torn_group_commit_is_all_or_nothing_per_batch() {
    const THREADS: usize = 8;
    const BATCHES: usize = 6;
    const BATCH_ROWS: usize = 3;
    let scratch = ScratchDir::new("torn");
    {
        let db = Database::open(scratch.path(), 2).unwrap();
        db.set_group_commit(true);
        db.create_table_with_chunk_capacity("t", schema(), 4)
            .unwrap();
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let db = &db;
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        let base = (tid * 1000 + b * BATCH_ROWS) as i64;
                        db.append_rows(
                            "t",
                            (0..BATCH_ROWS).map(|i| row(base + i as i64, i as f64)),
                        )
                        .unwrap();
                    }
                });
            }
        });
    }
    let full = wal_size(scratch.path());
    let pristine = std::fs::read(wal_file(scratch.path())).unwrap();
    // Sweep a spread of cut points, including mid-record ones.
    for cut in (0..=full).step_by(13).chain([full]) {
        std::fs::write(wal_file(scratch.path()), &pristine).unwrap();
        truncate_wal(scratch.path(), cut);
        let recovered = Database::recover(scratch.path()).unwrap();
        if !recovered.has_table("t") {
            continue; // cut before the CreateTable record committed
        }
        let table = recovered.table("t").unwrap();
        // Collect per-thread ids and check batch atomicity + prefix order.
        let mut per_thread: Vec<Vec<i64>> = vec![Vec::new(); THREADS];
        for seg in 0..table.num_segments() {
            for chunk in table.segment(seg).chunks() {
                for r in 0..chunk.len() {
                    if let Value::Int(id) = chunk.value(r, 0) {
                        per_thread[(id / 1000) as usize].push(id % 1000);
                    } else {
                        panic!("non-int id");
                    }
                }
            }
        }
        for (tid, mut ids) in per_thread.into_iter().enumerate() {
            ids.sort_unstable();
            assert_eq!(
                ids.len() % BATCH_ROWS,
                0,
                "cut {cut}: thread {tid} recovered a partial batch ({} rows)",
                ids.len()
            );
            // Batches commit in submission order per thread, so the
            // surviving ids are exactly 0..n for some whole-batch n.
            let expect: Vec<i64> = (0..ids.len() as i64).collect();
            assert_eq!(ids, expect, "cut {cut}: thread {tid} has a gapped batch");
        }
    }
    // Untruncated recovery sees everything.
    std::fs::write(wal_file(scratch.path()), &pristine).unwrap();
    let recovered = Database::recover(scratch.path()).unwrap();
    assert_eq!(
        recovered.table("t").unwrap().row_count(),
        THREADS * BATCHES * BATCH_ROWS
    );
}

/// Checkpoint + WAL-tail damage: state can never regress below the
/// checkpoint, and the tail replays to an exact committed prefix.
#[test]
fn checkpoint_floor_survives_wal_tail_damage() {
    let scratch = ScratchDir::new("ckpt");
    let floor;
    let marks_after;
    {
        let db = Database::open(scratch.path(), 2).unwrap();
        db.create_table_with_chunk_capacity("t", schema(), 4)
            .unwrap();
        db.append_rows("t", (0..10).map(|i| row(i, i as f64)))
            .unwrap();
        db.checkpoint().unwrap();
        floor = fingerprint(&db);
        let mut marks = vec![(db.wal_durable_len().unwrap(), floor.clone())];
        for b in 0..4 {
            db.append_rows("t", (0..3).map(|i| row(100 + b * 10 + i, 0.25)))
                .unwrap();
            marks.push((db.wal_durable_len().unwrap(), fingerprint(&db)));
        }
        marks_after = marks;
    }
    let full = wal_size(scratch.path());
    let pristine = std::fs::read(wal_file(scratch.path())).unwrap();
    for cut in 0..=full {
        std::fs::write(wal_file(scratch.path()), &pristine).unwrap();
        truncate_wal(scratch.path(), cut);
        let recovered = Database::recover(scratch.path()).unwrap();
        let fp = fingerprint(&recovered);
        let expect = marks_after
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(_, m)| m.clone())
            .unwrap_or_else(|| floor.clone());
        assert_eq!(fp, expect, "cut at byte {cut}");
    }
    // Deleting the WAL outright falls back to the snapshot alone.
    std::fs::remove_file(wal_file(scratch.path())).unwrap();
    let recovered = Database::recover(scratch.path()).unwrap();
    assert_eq!(fingerprint(&recovered), floor);
}

/// Sealed chunks are written to segment snapshot files exactly once:
/// a checkpoint that seals nothing new appends nothing, and re-checkpointing
/// the same data never rewrites existing bytes.
#[test]
fn chunk_files_are_append_only_and_written_once() {
    let scratch = ScratchDir::new("once");
    let db = Database::open(scratch.path(), 2).unwrap();
    db.create_table_with_chunk_capacity("t", schema(), 4)
        .unwrap();
    db.append_rows("t", (0..20).map(|i| row(i, i as f64)))
        .unwrap();
    let first = db.checkpoint().unwrap();
    assert!(first > 0, "expected sealed chunks to persist");

    let chunk_files = |dir: &Path| -> Vec<(String, u64, Vec<u8>)> {
        let mut v: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let e = e.unwrap();
                let name = e.file_name().into_string().unwrap();
                name.ends_with(".chunks").then(|| {
                    let bytes = std::fs::read(e.path()).unwrap();
                    (name, bytes.len() as u64, bytes)
                })
            })
            .collect();
        v.sort();
        v
    };

    let after_first = chunk_files(scratch.path());
    // Nothing new sealed → no bytes move.
    assert_eq!(db.checkpoint().unwrap(), 0);
    assert_eq!(chunk_files(scratch.path()), after_first);

    // More data → strictly appended; the old prefix is byte-identical.
    db.append_rows("t", (100..120).map(|i| row(i, 0.5)))
        .unwrap();
    assert!(db.checkpoint().unwrap() > 0);
    let after_second = chunk_files(scratch.path());
    assert_eq!(after_first.len(), after_second.len());
    for ((name_a, len_a, bytes_a), (name_b, len_b, bytes_b)) in
        after_first.iter().zip(after_second.iter())
    {
        assert_eq!(name_a, name_b, "checkpoint must not rename chunk files");
        assert!(len_b >= len_a);
        assert_eq!(
            &bytes_b[..*len_a as usize],
            &bytes_a[..],
            "prefix rewritten"
        );
    }
}

/// Reopening without any damage is always bit-identical, across checkpoint
/// placements and every supported column type.
#[test]
fn clean_reopen_roundtrips_all_column_types() {
    let wide = Schema::new(vec![
        Column::new("b", ColumnType::Bool),
        Column::new("i", ColumnType::Int),
        Column::new("d", ColumnType::Double),
        Column::new("s", ColumnType::Text),
        Column::new("da", ColumnType::DoubleArray),
        Column::new("ia", ColumnType::IntArray),
        Column::new("ta", ColumnType::TextArray),
    ]);
    let mk_row = |i: i64| {
        Row::new(vec![
            if i % 3 == 0 {
                Value::Null
            } else {
                Value::Bool(i % 2 == 0)
            },
            Value::Int(i),
            Value::Double(i as f64 * 0.1),
            Value::Text(format!("row-{i}")),
            Value::DoubleArray(vec![i as f64, -1.0, f64::MIN_POSITIVE]),
            Value::IntArray(vec![i, i * 2]),
            Value::TextArray(vec![format!("t{i}"), String::new()]),
        ])
    };
    for checkpoint_at in [None, Some(0), Some(5), Some(11)] {
        let scratch = ScratchDir::new("roundtrip");
        let before;
        {
            let db = Database::open(scratch.path(), 3).unwrap();
            db.create_table_with_chunk_capacity("wide", wide.clone(), 4)
                .unwrap();
            for i in 0..12i64 {
                db.append_rows("wide", [mk_row(i)]).unwrap();
                if checkpoint_at == Some(i) {
                    db.checkpoint().unwrap();
                }
            }
            before = fingerprint(&db);
        }
        let recovered = Database::recover(scratch.path()).unwrap();
        assert_eq!(
            fingerprint(&recovered),
            before,
            "checkpoint_at={checkpoint_at:?}"
        );
        // And a second-generation reopen (recover → append → recover).
        recovered.append_rows("wide", [mk_row(100)]).unwrap();
        let again = fingerprint(&recovered);
        drop(recovered);
        let third = Database::recover(scratch.path()).unwrap();
        assert_eq!(fingerprint(&third), again);
    }
}

/// Randomized schedules × randomized crash offsets: recovery always lands
/// exactly on the longest committed prefix at or below the cut.
///
/// Each raw `(kind, table, rows)` tuple decodes to one operation — `kind`
/// 0–5 is an append (weighted heavily), 6 truncate, 7 drop+recreate, 8
/// checkpoint, 9 replace with a populated table and 10 drop+register of one
/// — because the vendored proptest stand-in has no `prop_map`.
#[derive(Clone, Debug)]
enum PropOp {
    Append(u8, u8),
    Truncate(u8),
    DropCreate(u8),
    Checkpoint,
    Replace(u8, u8),
    DropRegister(u8, u8),
}

fn decode_op((kind, table, rows): (u8, u8, u8)) -> PropOp {
    match kind {
        0..=5 => PropOp::Append(table, rows),
        6 => PropOp::Truncate(table),
        7 => PropOp::DropCreate(table),
        8 => PropOp::Checkpoint,
        9 => PropOp::Replace(table, rows),
        _ => PropOp::DropRegister(table, rows),
    }
}

proptest! {
    #[test]
    fn random_schedules_recover_committed_prefixes(
        raw_ops in prop::collection::vec((0u8..11, 0u8..3, 1u8..8), 1..16),
        cut_frac in 0.0f64..1.0,
    ) {
        let ops: Vec<PropOp> = raw_ops.into_iter().map(decode_op).collect();
        let scratch = ScratchDir::new("prop");
        let names = ["a", "b", "c"];
        // Record a mark after every *WAL record*, not just every op, so a
        // cut between a DropCreate's two records still has an exact match.
        let mut marks;
        {
            let db = Database::open(scratch.path(), 2).unwrap();
            let mark = |db: &Database, marks: &mut Vec<(u64, String)>| {
                marks.push((db.wal_durable_len().unwrap(), fingerprint(db)));
            };
            marks = Vec::new();
            mark(&db, &mut marks);
            for name in names {
                db.create_table_with_chunk_capacity(name, schema(), 4).unwrap();
                mark(&db, &mut marks);
            }
            let mut next = 0i64;
            for op in &ops {
                match op {
                    PropOp::Append(t, n) => {
                        let base = next;
                        next += *n as i64;
                        db.append_rows(
                            names[*t as usize],
                            (0..*n as i64).map(|i| row(base + i, (base + i) as f64 * 0.5)),
                        ).unwrap();
                    }
                    PropOp::Truncate(t) => db.truncate_table(names[*t as usize]).unwrap(),
                    PropOp::DropCreate(t) => {
                        db.drop_table(names[*t as usize]).unwrap();
                        mark(&db, &mut marks);
                        db.create_table_with_chunk_capacity(names[*t as usize], schema(), 4)
                            .unwrap();
                    }
                    PropOp::Checkpoint => { db.checkpoint().unwrap(); }
                    PropOp::Replace(t, n) => {
                        let base = next;
                        next += *n as i64;
                        db.replace_table(names[*t as usize], striped_table(base, *n as usize))
                            .unwrap();
                    }
                    PropOp::DropRegister(t, n) => {
                        let base = next;
                        next += *n as i64;
                        db.drop_table(names[*t as usize]).unwrap();
                        mark(&db, &mut marks);
                        db.register_table(names[*t as usize], hashed_table(base, *n as usize))
                            .unwrap();
                    }
                }
                mark(&db, &mut marks);
            }
        }
        // Checkpoints reset the WAL, so only commit points since the last
        // reset are addressable by truncation; earlier marks have durable
        // lengths that may exceed the post-reset log. Keep the suffix whose
        // durable lengths are monotonically reachable from the end.
        let mut tail: Vec<(u64, String)> = Vec::new();
        let mut bound = u64::MAX;
        for mark in marks.iter().rev() {
            if mark.0 <= bound {
                bound = mark.0;
                tail.push(mark.clone());
            } else {
                break;
            }
        }
        tail.reverse();
        let full = wal_size(scratch.path());
        let cut = (cut_frac * full as f64) as u64;
        truncate_wal(scratch.path(), cut);
        let recovered = Database::recover(scratch.path()).unwrap();
        let expect = tail
            .iter()
            .rev()
            .find(|(len, _)| *len <= cut)
            .map(|(_, fp)| fp.clone())
            .unwrap_or_else(|| tail[0].1.clone());
        prop_assert_eq!(fingerprint(&recovered), expect);
    }
}

// ---------------------------------------------------------------------------
// The columnar `Append`: placement of a coerced key, all-or-nothing batches
// ---------------------------------------------------------------------------

/// Hash placement is defined on the stored value, so the live call (which
/// sees `3` and `3.0`) and replay (which sees the stored doubles only) put a
/// coerced key in the same place: on one segment, both spellings side by
/// side, live and recovered alike — replayed from the log, and loaded from a
/// checkpoint with a replayed tail behind it.
#[test]
fn a_coerced_hash_key_is_placed_alike_live_and_replayed() {
    let scratch = ScratchDir::new("coerced_key");
    let dir = scratch.path();
    let db = Database::open(dir, 4).unwrap();
    let on_v = Distribution::HashColumn("v".into());
    db.create_table_distributed("t", schema(), on_v).unwrap();
    let spellings = |keys: std::ops::Range<i64>| {
        keys.flat_map(|k| [Value::Int(k), Value::Double(k as f64)])
            .map(|key| Row::new(vec![Value::Int(0), key]))
    };
    db.append_rows("t", spellings(0..30)).unwrap();
    let table = db.table("t").unwrap();
    for s in 0..4 {
        let keys = table.segment(s).iter().map(|r| r.get(1).clone());
        let keys: Vec<Value> = keys.collect();
        assert!(keys.chunks(2).all(|pair| pair[0] == pair[1]), "{keys:?}");
        let placed = |key: &Value| (key.stable_hash() % 4) as usize == s;
        assert!(keys.iter().all(placed), "segment {s}: {keys:?}");
    }
    let expect = fingerprint(&db);
    drop(db);
    let db = Database::recover(dir).unwrap();
    assert_eq!(fingerprint(&db), expect);
    db.checkpoint().unwrap();
    db.append_rows("t", spellings(30..40)).unwrap();
    let expect = fingerprint(&db);
    drop(db);
    assert_eq!(fingerprint(&Database::recover(dir).unwrap()), expect);
}

/// A batch whose *last* row does not fit the schema is refused whole: the
/// table, the log and the views are what they were, and the rows before the
/// bad one are not in any of them after a restart either.
#[test]
fn a_batch_with_a_bad_last_row_leaves_table_wal_and_views_untouched() {
    use madlib_engine::aggregate::CountAggregate;
    use madlib_engine::materialize::MaterializedAggregate;
    use madlib_engine::Executor;

    let scratch = ScratchDir::new("bad_last_row");
    let dir = scratch.path();
    let db = Database::open(dir, 2).unwrap();
    db.create_table_with_chunk_capacity("t", schema(), 4)
        .unwrap();
    let view = MaterializedAggregate::new(CountAggregate, &Executor::new());
    db.register_view("n", "t", Box::new(view)).unwrap();
    let count = |db: &Database| {
        db.refresh_view("n", |state| {
            let view = state.as_any_mut();
            let view = view.downcast_mut::<MaterializedAggregate<CountAggregate>>();
            view.expect("count view").finalize()
        })
    };
    db.append_rows("t", rows(0, 6)).unwrap();
    let before = (fingerprint(&db), db.wal_durable_len(), snapshot(dir));

    let bad_type = Row::new(vec![Value::Int(99), Value::Text("no".into())]);
    let bad_arity = Row::new(vec![Value::Int(99)]);
    for bad in [bad_type, bad_arity] {
        let batch = rows(6, 9).chain([bad]);
        let err = db.append_rows("t", batch).unwrap_err();
        assert!(matches!(
            err,
            EngineError::TypeMismatch { .. } | EngineError::ArityMismatch { .. }
        ));
        assert_eq!(count(&db).unwrap(), 6);
        let after = (fingerprint(&db), db.wal_durable_len(), snapshot(dir));
        assert_eq!(after, before);
    }
    // An unknown table is reported before the rows are looked at.
    assert!(matches!(
        db.append_rows("nope", rows(0, 1)),
        Err(EngineError::TableNotFound { .. })
    ));
    drop(db);
    assert_eq!(fingerprint(&Database::recover(dir).unwrap()), before.0);
}

// ---------------------------------------------------------------------------
// Chunk files after a crashed checkpoint; the retired record tag
// ---------------------------------------------------------------------------

fn ids(db: &Database, table: &str) -> Vec<i64> {
    let values = db.table(table).unwrap().column_values("id").unwrap();
    values.iter().map(|v| v.as_int().unwrap()).collect()
}

/// One segment at chunk capacity 2, so every second row seals a chunk and
/// every checkpoint appends frames to `table_<id>_seg_0.chunks`.
fn open_single_segment(dir: &Path) -> Database {
    let db = Database::open(dir, 1).unwrap();
    db.create_table_with_chunk_capacity("t", schema(), 2)
        .unwrap();
    db
}

/// Runs `db.checkpoint()` and then takes the directory back to what a crash
/// after the checkpoint's chunk-file fsyncs and before its manifest rename
/// leaves: the old `MANIFEST` and `wal.log`, the new chunk-file frames.
fn crash_inside_checkpoint(db: Database) {
    let dir = db.storage_dir().unwrap().to_path_buf();
    let saved = ["MANIFEST", "wal.log"].map(|f| (dir.join(f), std::fs::read(dir.join(f)).unwrap()));
    db.checkpoint().unwrap();
    drop(db);
    for (path, bytes) in saved {
        std::fs::write(path, bytes).unwrap();
    }
}

/// Chunks are addressed by frame ordinal, so the frames a crashed checkpoint
/// appended behind the manifest's count must be gone before the next
/// checkpoint appends: it used to land its chunks behind them, and the
/// recovery after that read the dead frames as data (rows 8 and 9 lost, 4
/// and 5 twice, no error).
#[test]
fn frames_of_a_crashed_checkpoint_are_not_replayed_as_data() {
    let scratch = ScratchDir::new("crashed_ckpt");
    let db = open_single_segment(scratch.path());
    db.append_rows("t", rows(0, 6)).unwrap();
    db.checkpoint().unwrap();
    db.append_rows("t", rows(6, 4)).unwrap();
    crash_inside_checkpoint(db);

    let db = Database::recover(scratch.path()).unwrap();
    assert_eq!(ids(&db, "t"), (0..10).collect::<Vec<_>>());
    db.append_rows("t", rows(10, 2)).unwrap();
    db.checkpoint().unwrap();
    let expect = fingerprint(&db);
    drop(db);
    let db = Database::recover(scratch.path()).unwrap();
    assert_eq!(ids(&db, "t"), (0..12).collect::<Vec<_>>());
    assert_eq!(fingerprint(&db), expect);
}

/// The same cause through a reused file id: `next_file_id` is durable only
/// in the manifest, so after a crashed *first* checkpoint the id is handed
/// out again and the new incarnation's chunks used to land behind the dead
/// one's (`[0, 1, 2, 3, 104, 105]`).
#[test]
fn a_reused_chunk_file_id_starts_its_files_empty() {
    let scratch = ScratchDir::new("reused_id");
    let db = open_single_segment(scratch.path());
    db.append_rows("t", rows(0, 6)).unwrap();
    crash_inside_checkpoint(db);

    let db = Database::recover(scratch.path()).unwrap();
    assert_eq!(ids(&db, "t"), (0..6).collect::<Vec<_>>());
    db.truncate_table("t").unwrap();
    db.append_rows("t", rows(100, 6)).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::recover(scratch.path()).unwrap();
    assert_eq!(ids(&db, "t"), (100..106).collect::<Vec<_>>());
}

/// A truncate-and-refill through the unlogged `with_table_mut` is a new
/// incarnation of the table: the next checkpoint must not believe the chunk
/// prefix it persisted for the old one (`[0, 1, 2, 3, 104, 105]`).
#[test]
fn checkpoint_sees_a_refill_through_with_table_mut() {
    let scratch = ScratchDir::new("refill");
    let db = open_single_segment(scratch.path());
    db.append_rows("t", rows(0, 6)).unwrap();
    db.checkpoint().unwrap();
    db.with_table_mut("t", |t| {
        t.truncate();
        t.insert_all(rows(100, 6))
    })
    .unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::recover(scratch.path()).unwrap();
    assert_eq!(ids(&db, "t"), (100..106).collect::<Vec<_>>());
}

/// Every file of a database directory, by name.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

fn restore(dir: &Path, files: &[(String, Vec<u8>)]) {
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// The single segment's chunk file of [`open_single_segment`]'s table.
const CHUNK_FILE: &str = "table_1_seg_0.chunks";

/// A directory a successful recovery has work to do in, and the state it
/// must come back to: counted frames in the chunk file with the frames of a
/// crashed checkpoint behind them, a WAL tail to replay, and a torn frame
/// behind that.  Returns `(counted chunk-file bytes, fingerprint)`.
fn crashed_checkpoint_with_wal_tail(dir: &Path) -> (usize, String) {
    let db = open_single_segment(dir);
    db.append_rows("t", rows(0, 7)).unwrap();
    db.checkpoint().unwrap();
    let counted = std::fs::metadata(dir.join(CHUNK_FILE)).unwrap().len() as usize;
    db.append_rows("t", rows(7, 6)).unwrap();
    let expect = fingerprint(&db);
    crash_inside_checkpoint(db);
    assert!(std::fs::metadata(dir.join(CHUNK_FILE)).unwrap().len() as usize > counted);
    let mut wal = OpenOptions::new().append(true).open(wal_file(dir)).unwrap();
    wal.write_all(&[0xAB; 7]).unwrap();
    (counted, expect)
}

fn expect_refusal(result: Result<Database, EngineError>, needle: &str) {
    match result {
        Err(EngineError::Storage { message }) => {
            assert!(
                message.contains(needle),
                "error must say {needle:?}: {message}"
            )
        }
        other => panic!("expected a storage error, got {other:?}"),
    }
}

/// Record tags 3 and 5 (the row-wise `Append` and `PutTable` of the first
/// format) are retired, and so are format version 1 (the per-byte frame
/// checksum) of `wal.log` and `MANIFEST`, version 2 of `MANIFEST` (no view
/// frames), version 3 (view frames with a steal granularity and unit
/// states per segment) and the version-2 chunk encoding (`MADWAL02`,
/// `MADMAN04`: every text row behind its length, every array offset table
/// and bitmap word written): a directory holding any of them is
/// refused with a typed error naming what was found, and the refusal leaves
/// every file — the chunk file a crashed checkpoint left frames in included
/// — as it found it.
#[test]
fn a_retired_record_tag_is_refused_and_the_directory_left_untouched() {
    let scratch = ScratchDir::new("tag5");
    let dir = scratch.path();
    let (_, expect) = crashed_checkpoint_with_wal_tail(dir);
    let pristine = snapshot(dir);

    // A well-formed frame — `[u32 len][u64 checksum][payload]` — whose
    // payload is a record of a retired tag naming table "t", spliced in
    // front of the torn tail.
    let splice_frame = |tag: u8, checksum: u64| {
        let payload = [&[tag][..], &1u32.to_le_bytes(), b"t"].concat();
        let frame = [
            &(payload.len() as u32).to_le_bytes()[..],
            &checksum.to_le_bytes(),
            &payload,
        ]
        .concat();
        let mut bytes = std::fs::read(wal_file(dir)).unwrap();
        let torn = bytes.len() - 7;
        bytes.splice(torn..torn, frame);
        std::fs::write(wal_file(dir), bytes).unwrap();
    };
    let with_magic_digit = |file: &str, digit: u8| {
        let mut bytes = std::fs::read(dir.join(file)).unwrap();
        bytes[7] = digit;
        std::fs::write(dir.join(file), bytes).unwrap();
    };
    let refusals: [(&str, &dyn Fn()); 8] = [
        ("tag 3", &|| splice_frame(3, 0x4a2c_c0c2_b4fd_b3fa)),
        ("tag 5", &|| splice_frame(5, 0xed63_866d_87df_5711)),
        ("wal.log is format version 01", &|| {
            with_magic_digit("wal.log", b'1')
        }),
        ("MANIFEST is format version 01", &|| {
            with_magic_digit("MANIFEST", b'1')
        }),
        // Version 2: the manifest frame without view names or view frames.
        ("MANIFEST is format version 02", &|| {
            with_magic_digit("MANIFEST", b'2')
        }),
        // Version 3: a granularity byte and per-unit states in view frames.
        ("MANIFEST is format version 03", &|| {
            with_magic_digit("MANIFEST", b'3')
        }),
        // The chunk encoding before per-chunk text dictionaries, width in
        // place of uniform offsets and bitmap-free NULL-free columns.
        ("wal.log is format version 02", &|| {
            with_magic_digit("wal.log", b'2')
        }),
        ("MANIFEST is format version 04", &|| {
            with_magic_digit("MANIFEST", b'4')
        }),
    ];
    for (needle, damage) in refusals {
        restore(dir, &pristine);
        damage();
        let before = snapshot(dir);
        assert_ne!(before, pristine);
        expect_refusal(Database::open(dir, 1), needle);
        expect_refusal(Database::recover(dir), needle);
        assert_eq!(snapshot(dir), before, "refusing {needle:?} changed a file");
    }

    // The same directory without the damage recovers — and that does cut
    // the chunk file and the log, which is what the refusals must not do.
    restore(dir, &pristine);
    let db = Database::recover(dir).unwrap();
    assert_eq!(fingerprint(&db), expect);
    let after = snapshot(dir);
    for file in [CHUNK_FILE, "wal.log"] {
        let len = |files: &[(String, Vec<u8>)]| {
            let (_, bytes) = files.iter().find(|(name, _)| name == file).unwrap();
            bytes.len()
        };
        assert!(len(&after) < len(&pristine), "{file} was not cut");
    }
}

/// The WAL's every-offset truncation and byte-flip sweeps, over a chunk
/// file and the manifest: recovery answers damage with a typed error or
/// with exactly the acknowledged state, never with a panic or other rows.
/// Which of the two is known: the manifest and the chunk frames it counts
/// cannot lose a byte, the frames of the crashed checkpoint behind them are
/// not data.
#[test]
fn chunk_file_and_manifest_damage_is_a_typed_error_or_the_exact_state() {
    let scratch = ScratchDir::new("sweep");
    let dir = scratch.path();
    let (counted, expect) = crashed_checkpoint_with_wal_tail(dir);
    let pristine = snapshot(dir);
    let outcome = |what: &str, must_fail: bool| match Database::recover(dir) {
        Ok(db) => {
            assert!(!must_fail, "{what}: recovered from damage to counted bytes");
            assert_eq!(fingerprint(&db), expect, "{what}");
        }
        Err(EngineError::Storage { .. }) => assert!(must_fail, "{what}: refused"),
        Err(other) => panic!("{what}: expected a storage error, got {other:?}"),
    };
    for (file, needed) in [(CHUNK_FILE, counted), ("MANIFEST", usize::MAX)] {
        let (_, bytes) = pristine.iter().find(|(name, _)| name == file).unwrap();
        for cut in 0..bytes.len() {
            restore(dir, &pristine);
            std::fs::write(dir.join(file), &bytes[..cut]).unwrap();
            outcome(&format!("{file} cut to {cut}"), cut < needed);
        }
        for offset in 0..bytes.len() {
            restore(dir, &pristine);
            let mut flipped = bytes.clone();
            flipped[offset] ^= 0xff;
            std::fs::write(dir.join(file), flipped).unwrap();
            outcome(&format!("{file} flipped at {offset}"), offset < needed);
        }
    }

    // An untrusted length prefix is checked against the file before it is
    // believed: `u32::MAX` in a 100-byte chunk file is zero valid chunks,
    // not a 4 GiB allocation (`persist::tests` pins the "allocates nothing").
    restore(dir, &pristine);
    let mut huge = vec![0xAB; 100];
    huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(dir.join(CHUNK_FILE), huge).unwrap();
    expect_refusal(Database::recover(dir), "holds 0 valid chunks");
}

/// What cannot be read is reported as the I/O failure it is, apart from
/// corruption (which names chunk counts) and from a torn log tail (which is
/// no error at all): a directory where a file should be opens, but is not
/// taken for a damaged file.
#[test]
fn a_failed_read_is_an_io_error_not_corruption() {
    for (file, context) in [(CHUNK_FILE, "read chunk file"), ("wal.log", "read wal")] {
        let scratch = ScratchDir::new("eisdir");
        let dir = scratch.path();
        crashed_checkpoint_with_wal_tail(dir);
        std::fs::remove_file(dir.join(file)).unwrap();
        std::fs::create_dir(dir.join(file)).unwrap();
        expect_refusal(Database::recover(dir), context);
    }
}

/// `sum(column)` with a state codec: the persistable view of the tests
/// below (the engine's own aggregates have none).
#[derive(Clone)]
struct PersistedSum(&'static str);

impl Aggregate for PersistedSum {
    type State = f64;
    type Output = f64;

    fn initial_state(&self) -> f64 {
        0.0
    }

    fn transition(&self, state: &mut f64, row: &Row, schema: &Schema) -> madlib_engine::Result<()> {
        SumAggregate::new(self.0).transition(state, row, schema)
    }

    fn transition_chunk(
        &self,
        state: &mut f64,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        SumAggregate::new(self.0).transition_chunk(state, chunk, schema)
    }

    fn merge(&self, left: f64, right: f64) -> f64 {
        left + right
    }

    fn finalize(&self, state: f64) -> madlib_engine::Result<f64> {
        Ok(state)
    }

    fn state_fingerprint(&self) -> Option<Vec<u8>> {
        let mut out = StateWriter::new();
        out.put_str("sum");
        out.put_str(self.0);
        Some(out.into_bytes())
    }

    fn encode_state(&self, state: &f64, out: &mut StateWriter) {
        out.put_f64(*state);
    }

    fn decode_state(&self, input: &mut StateReader<'_>) -> madlib_engine::Result<f64> {
        input.f64()
    }
}

fn sum_view(column: &'static str) -> Box<dyn AnyMaterialized> {
    Box::new(MaterializedAggregate::new(
        PersistedSum(column),
        &Executor::new(),
    ))
}

/// Registers `view` as `sum(v)` over `t` and refreshes it.
fn view_sum(db: &Database, view: &str) -> u64 {
    db.register_view(view, "t", sum_view("v")).unwrap();
    refreshed_sum(db, view)
}

fn refreshed_sum(db: &Database, view: &str) -> u64 {
    db.refresh_view(view, |state| {
        state
            .as_any_mut()
            .downcast_mut::<MaterializedAggregate<PersistedSum>>()
            .expect("a sum view")
            .finalize()
    })
    .unwrap()
    .to_bits()
}

/// `sum(v)` over `t` by a scan: what every view must finalize to.
fn scanned_sum(db: &Database) -> u64 {
    let dataset = db.dataset("t").unwrap();
    dataset.aggregate(&PersistedSum("v")).unwrap().to_bits()
}

fn outcomes(db: &Database) -> Vec<(String, ViewOutcome)> {
    db.recovery_report().unwrap().views
}

fn rebuilt(reason: RebuildReason) -> ViewOutcome {
    ViewOutcome::Rebuilt { reason }
}

/// A checkpoint persists each persistable view; after recovery the first
/// registration of its name adopts it when it is its own — and absorbs only
/// the replayed rows — and rebuilds otherwise, with the reason on record.
/// An entry nobody asks for rides the next checkpoint while its table is
/// the incarnation it describes, and is dropped once it is not.
#[test]
fn persisted_views_are_adopted_refused_or_carried_forward_by_name() {
    let scratch = ScratchDir::new("adopt");
    let dir = scratch.path();
    let db = Database::open(dir, 2).unwrap();
    db.create_table_with_chunk_capacity("t", schema(), 2)
        .unwrap();
    db.append_rows("t", rows(0, 9)).unwrap();
    for (name, column) in [
        ("adopted", "v"),
        ("other_column", "v"),
        ("unasked", "v"),
        ("ids", "id"),
    ] {
        db.register_view(name, "t", sum_view(column)).unwrap();
        db.refresh_view(name, |_| Ok(())).unwrap();
    }
    // Not persisted: no state codec, and never absorbed.
    let plain = MaterializedAggregate::new(SumAggregate::new("v"), &Executor::new());
    db.register_view("plain", "t", Box::new(plain)).unwrap();
    db.refresh_view("plain", |_| Ok(())).unwrap();
    db.register_view("idle", "t", sum_view("v")).unwrap();
    assert_eq!(db.recovery_report().unwrap().manifest_epoch, None);
    db.checkpoint().unwrap();
    db.append_rows("t", rows(9, 5)).unwrap();
    db.append_rows("t", rows(14, 3)).unwrap();
    drop(db);

    let db = Database::recover(dir).unwrap();
    let report = db.recovery_report().unwrap();
    assert_eq!((report.manifest_epoch, report.tables_loaded), (Some(1), 1));
    assert_eq!(
        (report.wal_frames_replayed, report.wal_bytes_discarded),
        (2, 0)
    );
    let persisted = ["adopted", "ids", "other_column", "unasked"];
    let never = rebuilt(RebuildReason::NeverAskedFor);
    assert_eq!(outcomes(&db), persisted.map(|n| (n.to_owned(), never)));

    assert_eq!(view_sum(&db, "adopted"), scanned_sum(&db));
    db.register_view("other_column", "t", sum_view("id"))
        .unwrap();
    db.refresh_view("other_column", |_| Ok(())).unwrap();
    let expect = [
        ("adopted", ViewOutcome::Adopted { suffix_rows: 8 }),
        ("ids", never),
        ("other_column", rebuilt(RebuildReason::Fingerprint)),
        ("unasked", never),
    ];
    assert_eq!(outcomes(&db), expect.map(|(n, o)| (n.to_owned(), o)));
    // Used up: a second registration is a plain rebuild and leaves the
    // record alone.
    assert_eq!(view_sum(&db, "adopted"), scanned_sum(&db));
    assert_eq!(outcomes(&db)[0].1, ViewOutcome::Adopted { suffix_rows: 8 });

    // The unasked entries ride the next checkpoint, next to the views
    // registered since; after a truncate the one after that drops them.
    db.checkpoint().unwrap();
    drop(db);
    let db = Database::recover(dir).unwrap();
    let carried: Vec<String> = outcomes(&db).into_iter().map(|(n, _)| n).collect();
    assert_eq!(carried, persisted);
    // Carried as it was loaded: its watermarks are the first checkpoint's.
    assert_eq!(view_sum(&db, "unasked"), scanned_sum(&db));
    assert_eq!(outcomes(&db)[3].1, ViewOutcome::Adopted { suffix_rows: 8 });
    db.truncate_table("t").unwrap();
    db.checkpoint().unwrap();
    assert_eq!(outcomes(&db)[1].1, rebuilt(RebuildReason::Generation));
    drop(db);
    let db = Database::recover(dir).unwrap();
    assert_eq!(outcomes(&db), []);
}

/// The manifest sweep over a manifest that carries a view frame: damage to
/// the manifest frame is a typed error, damage behind it drops the view
/// frame — the tables come back exact and the view rebuilds to the bits it
/// had — and nothing ends in another sum.
#[test]
fn manifest_damage_behind_view_frames_is_an_error_or_a_rebuild() {
    let scratch = ScratchDir::new("viewsweep");
    let dir = scratch.path();
    let db = Database::open(dir, 2).unwrap();
    db.create_table_with_chunk_capacity("t", schema(), 2)
        .unwrap();
    db.append_rows("t", rows(0, 9)).unwrap();
    view_sum(&db, "s");
    db.checkpoint().unwrap();
    db.append_rows("t", rows(9, 5)).unwrap();
    let (expect, sum) = (fingerprint(&db), refreshed_sum(&db, "s"));
    drop(db);
    let pristine = snapshot(dir);
    let (_, manifest) = pristine
        .iter()
        .find(|(name, _)| name == "MANIFEST")
        .unwrap();
    // Magic, then the manifest frame's header and payload.
    let frame_len = u32::from_le_bytes(manifest[8..12].try_into().unwrap()) as usize;
    let manifest_end = 8 + 12 + frame_len;
    assert!(manifest_end < manifest.len(), "a view frame follows");

    let outcome = |what: &str, in_manifest_frame: bool| match Database::recover(dir) {
        Ok(db) => {
            assert!(
                !in_manifest_frame,
                "{what}: recovered from a damaged manifest"
            );
            assert_eq!(fingerprint(&db), expect, "{what}");
            assert_eq!(view_sum(&db, "s"), sum, "{what}");
            let damaged = rebuilt(RebuildReason::DamagedFrame);
            assert_eq!(outcomes(&db), [("s".to_owned(), damaged)], "{what}");
        }
        Err(EngineError::Storage { .. }) => assert!(in_manifest_frame, "{what}: refused"),
        Err(other) => panic!("{what}: expected a storage error, got {other:?}"),
    };
    for cut in 0..manifest.len() {
        restore(dir, &pristine);
        std::fs::write(dir.join("MANIFEST"), &manifest[..cut]).unwrap();
        outcome(&format!("cut to {cut}"), cut < manifest_end);
    }
    for offset in 0..manifest.len() {
        restore(dir, &pristine);
        let mut flipped = manifest.clone();
        flipped[offset] ^= 0xff;
        std::fs::write(dir.join("MANIFEST"), flipped).unwrap();
        outcome(&format!("flipped at {offset}"), offset < manifest_end);
    }
    restore(dir, &pristine);
    let db = Database::recover(dir).unwrap();
    assert_eq!(view_sum(&db, "s"), sum);
    let adopted = ViewOutcome::Adopted { suffix_rows: 5 };
    assert_eq!(outcomes(&db), [("s".to_owned(), adopted)]);
}

/// A panic inside a `with_table_mut` closure hands the table back as a new
/// incarnation: the unwind used to skip the stamp, so the half-mutated table
/// kept its generation, and views, the next checkpoint and a persisted view
/// all trusted it.
#[test]
fn a_panic_inside_with_table_mut_restamps_the_table() {
    let scratch = ScratchDir::new("panic");
    let dir = scratch.path();
    let db = open_single_segment(dir);
    db.append_rows("t", rows(0, 6)).unwrap();
    view_sum(&db, "s");
    db.checkpoint().unwrap();
    assert!(dir.join(CHUNK_FILE).exists());
    let before = db.table("t").unwrap().generation();

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        db.with_table_mut("t", |t| -> madlib_engine::Result<()> {
            t.insert_all(rows(6, 3))?;
            panic!("half way through a mutation")
        })
    }));
    assert!(unwound.is_err());
    assert_ne!(db.table("t").unwrap().generation(), before);
    // The view of the old incarnation is stale: the checkpoint writes the
    // table under a fresh chunk-file id and does not persist the view.
    db.checkpoint().unwrap();
    assert!(!dir.join(CHUNK_FILE).exists());
    assert!(dir.join("table_2_seg_0.chunks").exists());
    // Its next refresh rebuilds.
    assert_eq!(refreshed_sum(&db, "s"), scanned_sum(&db));
    drop(db);

    let db = Database::recover(dir).unwrap();
    assert_eq!(ids(&db, "t"), (0..9).collect::<Vec<_>>());
    assert_eq!(outcomes(&db), []);
    assert_eq!(view_sum(&db, "s"), scanned_sum(&db));
}

/// Bytes of every frame in `dir`'s manifest and chunk files: the files less
/// the manifest's magic.
fn frame_bytes_on_disk(dir: &Path) -> u64 {
    let files = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    let frames = files.filter(|path| path.extension().is_some_and(|e| e == "chunks"));
    let chunk_bytes: u64 = frames.map(|p| std::fs::metadata(p).unwrap().len()).sum();
    std::fs::metadata(dir.join("MANIFEST")).unwrap().len() - 8 + chunk_bytes
}

/// `RecoveryReport::bytes_loaded` is the bytes recovery verified and
/// decoded — every manifest frame and every counted chunk-file frame, not
/// the frames of a crashed checkpoint behind them — and what the chunk
/// encoding shrinks: for a table of `madbench`'s `grouped_zipf` shape (a
/// repeating text key, a width-8 feature vector, no NULLs) it is below what
/// the version-2 encoding wrote for the same rows.
#[test]
fn bytes_loaded_counts_the_frames_recovery_decoded() {
    let scratch = ScratchDir::new("bytes");
    let dir = scratch.path();
    let db = Database::open(dir, 2).unwrap();
    let schema = Schema::new(vec![
        Column::new("tenant", ColumnType::Text),
        Column::new("region", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("label", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let by_tenant = Distribution::HashColumn("tenant".into());
    db.create_table_distributed("zipf", schema, by_tenant)
        .unwrap();
    let rows = (0..3_000i64).map(|i| {
        Row::new(vec![
            Value::Text(format!("tenant_{}", i * i % 97)),
            Value::Int(i % 8),
            Value::Double(i as f64 * 0.5),
            Value::Double((i % 2) as f64),
            Value::DoubleArray((0..8).map(|j| (i * 8 + j) as f64).collect()),
        ])
    });
    db.append_rows("zipf", rows).unwrap();
    db.checkpoint().unwrap();
    drop(db);
    let on_disk = frame_bytes_on_disk(dir);
    let report = Database::recover(dir).unwrap().recovery_report().unwrap();
    assert_eq!(report.bytes_loaded, on_disk);
    // The version-2 encoding's frames for these rows, measured before the
    // format moved: 8 more bytes of offsets per row, every tenant behind its
    // length, bitmap words in every column.
    const VERSION_2_BYTES: u64 = 328_851;
    assert!(
        report.bytes_loaded * 100 < VERSION_2_BYTES * 95,
        "{} bytes loaded",
        report.bytes_loaded
    );

    // A crashed checkpoint's frames behind the counted ones are not loaded.
    let scratch = ScratchDir::new("bytes_crashed");
    let dir = scratch.path();
    let (counted, _) = crashed_checkpoint_with_wal_tail(dir);
    let uncounted = std::fs::metadata(dir.join(CHUNK_FILE)).unwrap().len() - counted as u64;
    let report = Database::recover(dir).unwrap().recovery_report().unwrap();
    assert_eq!(report.bytes_loaded, frame_bytes_on_disk(dir));
    assert!(uncounted > 0 && report.chunk_file_cuts.len() == 1);
}
