//! The reusable chunk-at-a-time scan pipeline.
//!
//! PR 1 vectorized the ungrouped aggregate scan; this module extracts the
//! pieces that made it fast — per-segment chunk iteration, predicate
//! evaluation hoisted to one [`crate::chunk::SelectionMask`] per chunk, compaction of
//! partially selected chunks, and the thread-per-segment fan-out — into
//! free functions every scan consumer shares.  The executor's ungrouped
//! aggregation, grouped aggregation, and `parallel_map` are all thin
//! compositions of these primitives, so a new consumer (a sketch pass, a
//! projection, a custom driver) opts into vectorized execution by writing a
//! per-batch sink instead of re-implementing the scan loop.
//!
//! Compaction has one site, `scan_chunks`: a partially selected chunk is
//! gathered into a new chunk of the selected rows — of every column for the
//! public [`scan_segment_chunks`] and `map_chunks`, whose sinks may read
//! anything, and of a `Projection`'s columns only for an aggregation scan
//! whose aggregate declares what it reads
//! ([`crate::Aggregate::input_columns`]).
//!
//! The fan-out (`run_per_segment`) additionally converts worker panics
//! into [`EngineError::WorkerPanicked`] values instead of aborting the
//! coordinating thread, so a buggy user-defined aggregate surfaces as an
//! error the driver can handle — the behaviour a DBMS gives a crashing UDF
//! query.
//!
//! # Scheduling
//!
//! Both fan-outs — `run_per_segment` / `run_per_segment_ranged` over a
//! table's segments and [`run_per_item`] over an owned work list (per-group
//! finalize states, gathered per-group tables) — use the same
//! **work-stealing** scheduler: workers claim the next unclaimed unit from a
//! shared atomic cursor instead of being striped statically, so a skewed
//! workload (one hot tenant, one giant group) no longer serializes the
//! worker that happened to own it while its siblings sit idle.  Results land
//! in per-unit slots and are reassembled in input order, so the output —
//! including which unit an error or [`EngineError::WorkerPanicked`] belongs
//! to — is bit-identical to the serial loop regardless of which worker ran
//! which unit.
//!
//! # Stealing granularity
//!
//! Aggregates steal **whole segments** (`run_per_segment`): a segment's
//! chunks stream through one transition state, and only the per-segment
//! states cross to `merge` — the paper's shared-nothing unit of scale-out.
//! Order-preserving terminals (`map_chunks`, `score`, `score_into`,
//! `score_per_group`) merge nothing, so they steal **chunk ranges**
//! (`run_per_segment_ranged`): segments split into [`ChunkRange`] units of
//! at most `CHUNKS_PER_UNIT` chunks, whose outputs concatenate back in range
//! order — unconditionally identical to the whole-segment scan, so one hot
//! segment's chunks spread across every worker for free.  The decomposition
//! is a pure function of the table, never of the worker count.
//!
//! The worker count comes from [`worker_count`]: the `MADLIB_THREADS`
//! environment variable when set to a positive integer, the machine's
//! available parallelism otherwise (an invalid override logs a warning once
//! rather than being silently ignored).

use crate::chunk::{RowChunk, Segment};
use crate::error::{EngineError, Result};
use crate::expr::Predicate;
use crate::schema::Schema;
use crate::table::Table;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One batch of filter-surviving rows handed to a scan sink: either a whole
/// chunk that passed the predicate untouched, or a compacted copy of the
/// selected rows of a partially selected chunk.
#[derive(Debug)]
pub enum ScanBatch<'a> {
    /// Every row of the chunk was selected; the chunk is borrowed as-is.
    Full(&'a RowChunk),
    /// Only some rows were selected; they were gathered into a compacted
    /// chunk (row order preserved).
    Compacted(RowChunk),
}

impl ScanBatch<'_> {
    /// The batch's rows as a column-major chunk.
    pub fn chunk(&self) -> &RowChunk {
        match self {
            ScanBatch::Full(chunk) => chunk,
            ScanBatch::Compacted(chunk) => chunk,
        }
    }
}

/// Row counters for one segment scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentScanStats {
    /// Rows read from storage.
    pub rows_scanned: u64,
    /// Rows that survived the filter and reached the sink.
    pub rows_passed: u64,
}

/// Streams one segment chunk-at-a-time through `sink`.
///
/// `filter` is evaluated once per chunk ([`Predicate::evaluate_chunk`] →
/// [`crate::chunk::SelectionMask`]); chunks with no selected rows are skipped, fully
/// selected chunks are passed through borrowed, and partially selected
/// chunks are gathered into a compacted chunk first.
///
/// # Errors
/// Propagates predicate-evaluation errors and errors returned by `sink`.
pub fn scan_segment_chunks<F>(
    segment: &Segment,
    schema: &Schema,
    filter: Option<&Predicate>,
    sink: F,
) -> Result<SegmentScanStats>
where
    F: FnMut(ScanBatch<'_>) -> Result<()>,
{
    scan_chunks(segment.chunks(), schema, filter, None, sink)
}

/// The columns a compaction copies — table indices in table order — and
/// the schema of the chunks it produces.
#[derive(Debug)]
pub(crate) struct Projection {
    columns: Vec<usize>,
    schema: Schema,
}

impl Projection {
    /// The projection of `schema` onto the columns at `columns` (ascending,
    /// distinct, in bounds).
    pub(crate) fn new(schema: &Schema, columns: Vec<usize>) -> Self {
        debug_assert!(columns.windows(2).all(|w| w[0] < w[1]));
        let kept = columns.iter().map(|&c| schema.columns()[c].clone());
        Self {
            schema: Schema::new(kept.collect()),
            columns,
        }
    }

    /// The kept columns' table indices, in table order.
    pub(crate) fn columns(&self) -> &[usize] {
        &self.columns
    }

    /// The schema of a chunk holding just the kept columns.
    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }
}

/// Streams a slice of chunks through `sink` — the ranged core of
/// [`scan_segment_chunks`], also usable on a [`ChunkRange`]'s sub-slice of a
/// segment's chunks.  Filtering and compaction behave exactly as in
/// [`scan_segment_chunks`], except that a compaction copies only the
/// columns of `projection` when one is given (`None`: every column); fully
/// selected chunks pass through whole either way.  This is the engine's one
/// compaction site.
///
/// # Errors
/// Propagates predicate-evaluation errors and errors returned by `sink`.
pub(crate) fn scan_chunks<F>(
    chunks: &[Arc<RowChunk>],
    schema: &Schema,
    filter: Option<&Predicate>,
    projection: Option<&Projection>,
    mut sink: F,
) -> Result<SegmentScanStats>
where
    F: FnMut(ScanBatch<'_>) -> Result<()>,
{
    let kept = projection.map(Projection::columns);
    let mut stats = SegmentScanStats::default();
    for chunk in chunks {
        let chunk: &RowChunk = chunk;
        if chunk.is_empty() {
            continue;
        }
        stats.rows_scanned += chunk.len() as u64;
        match filter {
            None => {
                stats.rows_passed += chunk.len() as u64;
                sink(ScanBatch::Full(chunk))?;
            }
            Some(predicate) => {
                // Filter once per chunk, not once per row.
                let mask = predicate.evaluate_chunk(chunk, schema)?;
                let selected = mask.count_selected();
                if selected == 0 {
                    continue;
                }
                stats.rows_passed += selected as u64;
                if selected == chunk.len() {
                    sink(ScanBatch::Full(chunk))?;
                } else {
                    sink(ScanBatch::Compacted(chunk.gather_columns(&mask, kept)))?;
                }
            }
        }
    }
    Ok(stats)
}

/// Number of worker threads parallel fan-outs may spawn: the
/// `MADLIB_THREADS` environment variable when it parses as a positive
/// integer, the machine's available parallelism otherwise.
///
/// This is the single thread-count policy shared by every fan-out of this
/// module ([`run_per_item`] among them) and the benchmark harness — the override exists so a
/// shared benchmark host (or a test) can pin the pool size without touching
/// cgroup limits.  An override that does not parse as a positive integer
/// (empty, `0`, `lots`) logs a warning to stderr — once per process — and
/// falls back to the machine's parallelism: a typo'd pin on a benchmark host
/// should be loud, not silently absorbed.  The environment is re-read on
/// every call (benchmarks re-pin mid-process); only the warning is deduped.
pub fn worker_count() -> usize {
    let (workers, warning) = worker_count_from(std::env::var("MADLIB_THREADS").ok().as_deref());
    if let Some(warning) = warning {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| eprintln!("madlib-engine: {warning}"));
    }
    workers
}

/// The pure policy behind [`worker_count`], split out so the parsing can be
/// tested without racing on the process environment: a positive-integer
/// override wins; anything else (empty, `0`, garbage) falls back to the
/// machine's available parallelism and returns the warning that should be
/// logged.  An *unset* variable is not an error and never warns.
pub(crate) fn worker_count_from(env_override: Option<&str>) -> (usize, Option<String>) {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    let Some(raw) = env_override else {
        return (fallback(), None);
    };
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => (n, None),
        _ => (
            fallback(),
            Some(format!(
                "invalid MADLIB_THREADS value {raw:?} (expected a positive integer); \
                 falling back to available parallelism"
            )),
        ),
    }
}

/// Runs `work` once per segment of `table` — on parallel worker threads when
/// `parallel` is set and the table has more than one segment — and returns
/// the per-segment results in segment order.
///
/// The fan-out spawns at most `min(segments, `[`worker_count`]`)` workers
/// which **steal work**: each worker claims the next unclaimed segment from
/// a shared atomic cursor, so a skewed table (one giant segment next to
/// near-empty ones) keeps every worker busy instead of serializing the
/// worker that statically owned the hot segment.  Oversubscribing the
/// machine (e.g. 4 workers with 80 MB of grouped state each on a single
/// core) only adds context-switch and cache-thrash cost, so a 1-core host
/// degenerates to the serial loop.  Results land in per-segment slots and
/// are returned in segment order, so output is bit-identical to the serial
/// loop no matter which worker ran which segment.
///
/// A panicking worker does **not** abort the coordinator: the panic payload
/// is captured and surfaced as [`EngineError::WorkerPanicked`] in that
/// segment's slot, while the remaining segments still run to completion.
pub(crate) fn run_per_segment<T, F>(table: &Table, parallel: bool, work: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize, &Segment) -> Result<T> + Sync,
{
    let workers = if parallel {
        worker_count().min(table.num_segments())
    } else {
        1
    };
    run_per_segment_with_workers(table, workers, work)
}

/// [`run_per_segment`] with an explicit worker count, so tests can force the
/// multi-worker stealing path regardless of how many cores the host exposes.
fn run_per_segment_with_workers<T, F>(table: &Table, workers: usize, work: F) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(usize, &Segment) -> Result<T> + Sync,
{
    // At Segment granularity every segment is exactly one unit, so the merge
    // closure is never invoked.
    run_units_with_workers(
        table,
        chunk_range_units(table, StealGranularity::Segment),
        workers,
        |range, segment| work(range.segment, segment),
        |left, _right| left,
    )
}

/// How [`chunk_range_units`] decomposes a table into steal-able units.  The
/// terminal decides, not the caller: aggregates steal whole segments,
/// order-preserving terminals chunk ranges (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StealGranularity {
    /// One work unit per segment: a segment's chunks stream through one
    /// worker sequentially, so per-segment results are bit-identical to the
    /// serial scan.  Every aggregate scan is cut this way.
    Segment,
    /// Segments split into [`ChunkRange`] units of at most four chunks, so
    /// one hot segment spreads across every worker.  The order-preserving
    /// terminals are cut this way; their per-unit outputs concatenate back
    /// in range order.
    ChunkRange,
}

/// One steal-able work unit: the chunks `chunk_lo..chunk_hi` of segment
/// `segment`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRange {
    /// Index of the segment the range belongs to.
    pub segment: usize,
    /// First chunk of the range (inclusive).
    pub chunk_lo: usize,
    /// End of the range (exclusive).  `chunk_lo == chunk_hi` is an empty
    /// range, emitted so even an empty segment yields one unit (and thus one
    /// per-segment result).
    pub chunk_hi: usize,
}

impl ChunkRange {
    /// The range's chunks within `segment` (which must be the segment the
    /// range was decomposed from).
    pub(crate) fn chunks<'a>(&self, segment: &'a Segment) -> &'a [Arc<RowChunk>] {
        &segment.chunks()[self.chunk_lo..self.chunk_hi]
    }
}

/// Chunks per [`ChunkRange`] unit under [`StealGranularity::ChunkRange`].
///
/// At the default chunk capacity (1024 rows) one unit is ≤ 4096 rows — fine
/// enough that a single hot segment splits across every worker, coarse
/// enough that the per-unit scheduling cost (one atomic claim, one output
/// concatenation) stays negligible against scanning the rows.
pub(crate) const CHUNKS_PER_UNIT: usize = 4;

/// Decomposes `table` into steal-able units — a **pure function of the
/// table and granularity**, never of the worker count, so results do not
/// depend on scheduling.  Every segment yields at least one unit, in
/// `(segment, chunk_lo)` order.
///
/// Public so the benchmark can report a decomposition (`engine.scan.units`
/// asks for [`StealGranularity::ChunkRange`], the split of the
/// order-preserving terminals).
pub fn chunk_range_units(table: &Table, granularity: StealGranularity) -> Vec<ChunkRange> {
    let mut units = Vec::with_capacity(table.num_segments());
    for segment in 0..table.num_segments() {
        let chunks = table.segment(segment).chunks().len();
        let per_unit = match granularity {
            StealGranularity::Segment => chunks.max(1),
            StealGranularity::ChunkRange => CHUNKS_PER_UNIT,
        };
        let mut chunk_lo = 0;
        loop {
            let chunk_hi = (chunk_lo + per_unit).min(chunks);
            units.push(ChunkRange {
                segment,
                chunk_lo,
                chunk_hi,
            });
            chunk_lo = chunk_hi;
            if chunk_lo >= chunks {
                break;
            }
        }
    }
    units
}

/// Runs `work` once per [`StealGranularity::ChunkRange`] unit of `table` —
/// on work-stealing parallel workers when `parallel` is set — and folds each
/// segment's per-unit results with `merge` **in range order**, returning one
/// result per segment in segment order.
///
/// A hot segment's chunks spread across all workers; `merge` combines two
/// adjacent ranges' results into the earlier range's — concatenation, for
/// the order-preserving terminals that call this.  Because the unit
/// decomposition ([`chunk_range_units`]) and the merge order are functions
/// of the table alone, the per-segment results are identical no matter how
/// many workers ran or which worker claimed which unit.
///
/// When several units of one segment fail, the earliest failing range's
/// error (panics included, as [`EngineError::WorkerPanicked`]) is the
/// segment's result — matching the error the serial whole-segment scan
/// would have surfaced first.
pub(crate) fn run_per_segment_ranged<T, F, M>(
    table: &Table,
    parallel: bool,
    work: F,
    merge: M,
) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(ChunkRange, &Segment) -> Result<T> + Sync,
    M: Fn(T, T) -> T,
{
    let units = chunk_range_units(table, StealGranularity::ChunkRange);
    let workers = if parallel {
        worker_count().min(units.len())
    } else {
        1
    };
    run_units_with_workers(table, units, workers, work, merge)
}

/// The shared core of [`run_per_segment`] and [`run_per_segment_ranged`]:
/// schedules `units` over `workers` stealing workers (or the calling thread)
/// and folds per-unit results into per-segment results in range order.
fn run_units_with_workers<T, F, M>(
    table: &Table,
    units: Vec<ChunkRange>,
    workers: usize,
    work: F,
    merge: M,
) -> Vec<Result<T>>
where
    T: Send,
    F: Fn(ChunkRange, &Segment) -> Result<T> + Sync,
    M: Fn(T, T) -> T,
{
    // A unit is an owned item of the one stealing pool; the outer `Result`
    // it adds carries a unit's panic as `WorkerPanicked`.
    let unit_results = run_per_item_with_workers(
        units.clone(),
        workers,
        || (),
        |_, unit, ()| work(unit, table.segment(unit.segment)),
    );
    // Fold per-unit results into per-segment results.  Units are in
    // (segment, chunk_lo) order, so iterating unit slots in order merges
    // each segment's ranges left-to-right — the deterministic range-order
    // merge the bit-identity guarantees rest on.
    let mut results: Vec<Option<Result<T>>> = (0..table.num_segments()).map(|_| None).collect();
    for (&unit, result) in units.iter().zip(unit_results) {
        let result = result.and_then(|unit_result| unit_result);
        let slot = &mut results[unit.segment];
        *slot = Some(match slot.take() {
            None => result,
            Some(Ok(prev)) => result.map(|next| merge(prev, next)),
            // Keep the earliest range's error for the segment.
            Some(err @ Err(_)) => err,
        });
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every segment decomposes into at least one unit"))
        .collect()
}

/// Runs `work` once per owned item — on work-stealing parallel workers when
/// `parallel` is set and there is more than one item — returning the results
/// in item order.  This is the owned-input sibling of `run_per_segment`,
/// used to parallelize per-group *compute* (finalizing merged group states,
/// fitting gathered per-group tables) across the same worker pool as the
/// scan itself.
///
/// `work`'s return value is wrapped in the outer [`Result`] only to carry
/// [`EngineError::WorkerPanicked`]: a panic in `work` is captured and
/// surfaced in that item's slot while the remaining items still run.  Use a
/// nested `Result` as `T` for fallible work.
pub fn run_per_item<I, T, F>(items: Vec<I>, parallel: bool, work: F) -> Vec<Result<T>>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    run_per_item_with_scratch(items, parallel, || (), |idx, item, ()| work(idx, item))
}

/// [`run_per_item`] with a per-worker scratch value: `make_scratch` runs
/// once per worker thread and the resulting scratch is threaded through
/// every item that worker claims.  This is how per-group finalize reuses
/// one decomposition workspace across all the groups a worker processes
/// instead of allocating per group.
///
/// Item order, panic capture and the serial (`parallel == false` or one
/// worker) fallback behave exactly as in [`run_per_item`]; the scratch is an
/// optimization handle, never observable in the results.
pub(crate) fn run_per_item_with_scratch<I, T, W, M, F>(
    items: Vec<I>,
    parallel: bool,
    make_scratch: M,
    work: F,
) -> Vec<Result<T>>
where
    I: Send,
    T: Send,
    M: Fn() -> W + Sync,
    F: Fn(usize, I, &mut W) -> T + Sync,
{
    let workers = if parallel {
        worker_count().min(items.len())
    } else {
        1
    };
    run_per_item_with_workers(items, workers, make_scratch, work)
}

/// [`run_per_item_with_scratch`] with an explicit worker count, so tests can
/// force the multi-worker stealing path regardless of host core count.  This
/// is the engine's one stealing pool: the segment and chunk-range fan-outs
/// run their units through it as items.
fn run_per_item_with_workers<I, T, W, M, F>(
    items: Vec<I>,
    workers: usize,
    make_scratch: M,
    work: F,
) -> Vec<Result<T>>
where
    I: Send,
    T: Send,
    M: Fn() -> W + Sync,
    F: Fn(usize, I, &mut W) -> T + Sync,
{
    let num_items = items.len();
    let run_caught = |idx: usize, item: I, scratch: &mut W| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(idx, item, scratch)))
            .map_err(|payload| worker_panic_error(payload.as_ref()))
    };
    if workers <= 1 {
        let mut scratch = make_scratch();
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| run_caught(idx, item, &mut scratch))
            .collect();
    }
    // Owned items are parked in take-once slots (the crate forbids unsafe
    // code, so no raw parallel moves); the Mutex is uncontended — the atomic
    // cursor hands each slot to exactly one worker.
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let mut results: Vec<Option<Result<T>>> = (0..num_items).map(|_| None).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let run_caught = &run_caught;
        let make_scratch = &make_scratch;
        let slots = &slots;
        let cursor = &cursor;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    let mut done = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= num_items {
                            break;
                        }
                        // The lock is held only across `Option::take`, which
                        // cannot panic, so it is never poisoned.
                        let item = slots[idx]
                            .lock()
                            .expect("item slot mutex cannot be poisoned")
                            .take()
                            .expect("the cursor hands every item to exactly one worker");
                        done.push((idx, run_caught(idx, item, &mut scratch)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            // Workers catch panics per item, so joins cannot fail.
            for (idx, result) in handle.join().expect("worker catches its panics") {
                results[idx] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("the cursor hands every item to exactly one worker"))
        .collect()
}

/// Extracts a human-readable message from a panic payload.
fn worker_panic_error(payload: &(dyn std::any::Any + Send)) -> EngineError {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic payload of unknown type".to_owned());
    EngineError::WorkerPanicked { message }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType};

    fn make_table(segments: usize, rows: usize) -> Table {
        let schema = Schema::new(vec![Column::new("y", ColumnType::Double)]);
        let mut t = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        for i in 0..rows {
            t.insert(row![i as f64]).unwrap();
        }
        t
    }

    #[test]
    fn chunked_scan_counts_and_filters() {
        let t = make_table(1, 50);
        let pred = Predicate::column_gt("y", 24.5);
        let mut seen = 0u64;
        let stats = scan_segment_chunks(t.segment(0), t.schema(), Some(&pred), |batch| {
            seen += batch.chunk().len() as u64;
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.rows_scanned, 50);
        assert_eq!(stats.rows_passed, 25);
        assert_eq!(seen, 25);
    }

    #[test]
    fn per_segment_fanout_preserves_order() {
        let t = make_table(4, 40);
        let results = run_per_segment(&t, true, |seg, segment| Ok((seg, segment.len())));
        let collected: Vec<(usize, usize)> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(collected.len(), 4);
        for (i, (seg, len)) in collected.iter().enumerate() {
            assert_eq!(*seg, i);
            assert_eq!(*len, 10);
        }
    }

    #[test]
    fn worker_panics_become_errors() {
        let t = make_table(3, 9);
        for parallel in [true, false] {
            let results: Vec<Result<()>> = run_per_segment(&t, parallel, |seg, _| {
                if seg == 1 {
                    panic!("boom in segment {seg}");
                }
                Ok(())
            });
            assert!(results[0].is_ok());
            assert!(results[2].is_ok());
            match &results[1] {
                Err(EngineError::WorkerPanicked { message }) => {
                    assert!(message.contains("boom"), "unexpected message: {message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    /// Builds a table with explicitly skewed per-segment row counts (segments
    /// may be empty) by inserting straight into each segment.
    fn make_skewed_table(segment_rows: &[usize]) -> Table {
        let schema = Schema::new(vec![Column::new("y", ColumnType::Double)]);
        let mut t = Table::new(schema, segment_rows.len())
            .unwrap()
            .with_chunk_capacity(8)
            .unwrap();
        let mut next = 0.0;
        for (seg, &rows) in segment_rows.iter().enumerate() {
            for _ in 0..rows {
                t.insert_into_segment(seg, row![next]).unwrap();
                next += 1.0;
            }
        }
        t
    }

    /// Property: on skewed segment sizes (including empty segments), the
    /// work-stealing scheduler produces exactly the serial loop's output,
    /// for every worker count from 1 to segments + 2.
    #[test]
    fn stealing_matches_serial_on_skewed_segments() {
        let shapes: [&[usize]; 5] = [
            &[100, 0, 1, 0, 3, 57, 0, 2],
            &[0, 0, 0, 0],
            &[97],
            &[1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            &[0, 200, 0, 0, 0, 0, 0, 5],
        ];
        for shape in shapes {
            let t = make_skewed_table(shape);
            let work = |seg: usize, segment: &Segment| {
                let mut sum = 0.0f64;
                scan_segment_chunks(segment, t.schema(), None, |batch| {
                    sum = batch
                        .chunk()
                        .doubles(0)?
                        .values
                        .iter()
                        .fold(sum, |s, v| s + v);
                    Ok(())
                })?;
                Ok((seg, segment.len(), sum.to_bits()))
            };
            let serial: Vec<_> = run_per_segment_with_workers(&t, 1, work)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            for workers in 2..=shape.len() + 2 {
                let stolen: Vec<_> = run_per_segment_with_workers(&t, workers, work)
                    .into_iter()
                    .map(|r| r.unwrap())
                    .collect();
                assert_eq!(stolen, serial, "workers={workers} shape={shape:?}");
            }
        }
    }

    /// Regression: a panicking worker under multi-worker stealing surfaces as
    /// a typed `WorkerPanicked` error in that segment's slot — no hang, and
    /// the other segments still complete.
    #[test]
    fn stealing_surfaces_worker_panics() {
        let t = make_skewed_table(&[5, 0, 40, 2, 0, 9]);
        for workers in [2, 3, 6] {
            let results: Vec<Result<usize>> =
                run_per_segment_with_workers(&t, workers, |seg, s| {
                    if seg == 2 {
                        panic!("stolen boom");
                    }
                    Ok(s.len())
                });
            for (seg, result) in results.iter().enumerate() {
                if seg == 2 {
                    match result {
                        Err(EngineError::WorkerPanicked { message }) => {
                            assert!(message.contains("stolen boom"));
                        }
                        other => panic!("expected WorkerPanicked, got {other:?}"),
                    }
                } else {
                    assert!(result.is_ok(), "segment {seg} should succeed");
                }
            }
        }
    }

    #[test]
    fn per_item_pool_preserves_order_and_scratch() {
        let items: Vec<u64> = (0..37).collect();
        for workers in [1, 2, 5, 40] {
            let results = run_per_item_with_workers(
                items.clone(),
                workers,
                || 0u64,
                |idx, item, calls| {
                    *calls += 1;
                    item * 10 + idx as u64
                },
            );
            let got: Vec<u64> = results.into_iter().map(|r| r.unwrap()).collect();
            let want: Vec<u64> = items.iter().map(|&i| i * 10 + i).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn per_item_pool_surfaces_panics() {
        let items: Vec<usize> = (0..10).collect();
        let results = run_per_item_with_workers(
            items,
            3,
            || (),
            |_, item, ()| {
                if item == 4 {
                    panic!("item boom");
                }
                item
            },
        );
        for (idx, result) in results.iter().enumerate() {
            if idx == 4 {
                match result {
                    Err(EngineError::WorkerPanicked { message }) => {
                        assert!(message.contains("item boom"));
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
            } else {
                assert_eq!(*result.as_ref().unwrap(), idx);
            }
        }
    }

    #[test]
    fn worker_count_respects_env_override() {
        assert_eq!(worker_count_from(Some("6")), (6, None));
        assert_eq!(worker_count_from(Some(" 3 ")), (3, None));
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Unset is the documented default, not an error: no warning.
        assert_eq!(worker_count_from(None), (fallback, None));
        // Invalid overrides fall back *and* warn — a typo'd pin on a
        // benchmark host must be loud.
        for raw in ["0", "", "lots", "-2", "1.5"] {
            let (workers, warning) = worker_count_from(Some(raw));
            assert_eq!(workers, fallback, "raw={raw:?}");
            let warning = warning.unwrap_or_else(|| panic!("raw={raw:?} should warn"));
            assert!(warning.contains("MADLIB_THREADS"), "warning: {warning}");
        }
    }

    /// The unit decomposition is a pure function of the table: every segment
    /// yields at least one unit, units are in (segment, chunk_lo) order,
    /// cover each segment's chunks exactly, and never exceed
    /// `CHUNKS_PER_UNIT` chunks at chunk-range granularity.
    #[test]
    fn chunk_range_units_cover_segments_deterministically() {
        let t = make_skewed_table(&[100, 0, 1, 0, 3, 57, 0, 2]);
        for granularity in [StealGranularity::Segment, StealGranularity::ChunkRange] {
            let units = chunk_range_units(&t, granularity);
            assert_eq!(units, chunk_range_units(&t, granularity));
            let mut next_lo = vec![0usize; t.num_segments()];
            let mut seen_segments = Vec::new();
            for unit in &units {
                assert_eq!(unit.chunk_lo, next_lo[unit.segment], "gap in {unit:?}");
                assert!(unit.chunk_hi >= unit.chunk_lo);
                if granularity == StealGranularity::ChunkRange {
                    assert!(unit.chunk_hi - unit.chunk_lo <= CHUNKS_PER_UNIT);
                }
                next_lo[unit.segment] = unit.chunk_hi;
                if seen_segments.last() != Some(&unit.segment) {
                    seen_segments.push(unit.segment);
                }
            }
            assert_eq!(seen_segments, (0..t.num_segments()).collect::<Vec<_>>());
            for (seg, &lo) in next_lo.iter().enumerate() {
                assert_eq!(lo, t.segment(seg).chunks().len());
            }
        }
        // The hot segment (100 rows, chunk capacity 8 → 13 chunks) splits
        // into multiple steal-able units.
        let ranged = chunk_range_units(&t, StealGranularity::ChunkRange);
        assert!(
            ranged.iter().filter(|u| u.segment == 0).count() > 1,
            "hot segment should decompose into several units: {ranged:?}"
        );
    }

    /// Property: chunk-range stealing produces the same per-segment results
    /// as the whole-segment serial scan for exact (integer-valued) sums, on
    /// skewed and empty-segment tables, for every worker count.  Row counts
    /// are integers, so every partial sum is exact and the range-order merge
    /// is bit-identical to the sequential fold.
    #[test]
    fn chunk_range_stealing_matches_whole_segment_scan() {
        let shapes: [&[usize]; 4] = [
            &[100, 0, 1, 0, 3, 57, 0, 2],
            &[0, 0, 0, 0],
            &[200],
            &[0, 97, 0, 0, 0, 0, 0, 5],
        ];
        for shape in shapes {
            let t = make_skewed_table(shape);
            let whole: Vec<(u64, u64, u64)> = run_per_segment(&t, false, |_, segment| {
                let mut rows = 0u64;
                let mut sum = 0.0f64;
                scan_segment_chunks(segment, t.schema(), None, |batch| {
                    rows += batch.chunk().len() as u64;
                    for v in batch.chunk().doubles(0)?.values {
                        sum += v;
                    }
                    Ok(())
                })?;
                Ok((rows, sum.to_bits(), 1))
            })
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
            let work = |range: ChunkRange, segment: &Segment| {
                let mut rows = 0u64;
                let mut sum = 0.0f64;
                scan_chunks(range.chunks(segment), t.schema(), None, None, |batch| {
                    rows += batch.chunk().len() as u64;
                    for v in batch.chunk().doubles(0)?.values {
                        sum += v;
                    }
                    Ok(())
                })?;
                Ok((rows, sum.to_bits(), 1))
            };
            let merge = |a: (u64, u64, u64), b: (u64, u64, u64)| {
                let merged = f64::from_bits(a.1) + f64::from_bits(b.1);
                (a.0 + b.0, merged.to_bits(), a.2 + b.2)
            };
            let units = chunk_range_units(&t, StealGranularity::ChunkRange);
            for workers in 1..=units.len() + 2 {
                let ranged: Vec<(u64, u64, u64)> =
                    run_units_with_workers(&t, units.clone(), workers, work, merge)
                        .into_iter()
                        .map(|r| r.unwrap())
                        .collect();
                assert_eq!(ranged.len(), whole.len(), "shape={shape:?}");
                for (seg, (r, w)) in ranged.iter().zip(&whole).enumerate() {
                    assert_eq!(r.0, w.0, "rows differ: seg={seg} workers={workers}");
                    assert_eq!(
                        r.1, w.1,
                        "sum bits differ: seg={seg} workers={workers} shape={shape:?}"
                    );
                    // The merge count tells us how many units actually ran.
                    assert!(r.2 >= w.2);
                }
            }
        }
    }

    /// A panic in one chunk-range unit surfaces as that *segment's*
    /// `WorkerPanicked` error while other segments complete, and the
    /// earliest failing range wins when several fail.
    #[test]
    fn chunk_range_panics_surface_per_segment() {
        let t = make_skewed_table(&[60, 5, 40]);
        let units = chunk_range_units(&t, StealGranularity::ChunkRange);
        for workers in [1, 2, 4] {
            let results: Vec<Result<usize>> = run_units_with_workers(
                &t,
                units.clone(),
                workers,
                |range, _| {
                    if range.segment == 2 && range.chunk_lo > 0 {
                        panic!("range boom at chunk {}", range.chunk_lo);
                    }
                    Ok(1)
                },
                |a, b| a + b,
            );
            assert!(results[0].is_ok());
            assert!(results[1].is_ok());
            match &results[2] {
                Err(EngineError::WorkerPanicked { message }) => {
                    // Earliest failing range (first unit past chunk 0).
                    assert!(
                        message.contains(&format!("range boom at chunk {CHUNKS_PER_UNIT}")),
                        "unexpected message: {message}"
                    );
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }
}
