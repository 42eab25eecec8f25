//! One fold: the per-segment partial states every aggregation scan
//! produces, the runners that produce them, and the merge that consumes
//! them.
//!
//! The paper's scale-out contract is `transition` / `merge` / `final`, with
//! only the small states crossing segments.  This module is the engine's one
//! implementation of that contract:
//!
//! * **Currency** — `Vec<U>`: one partial state per segment, in segment
//!   order.  The segment is the unit of work: a segment's chunks stream
//!   through one state on one worker.  An ungrouped state is an `A::State`;
//!   a grouped one is a [`GroupedUnit`] (a [`SlotDirectory`] + one state per
//!   slot).
//! * **Runners** — [`advance_state`] folds a run of chunks into an ungrouped
//!   state ([`scan::scan_chunks`] + [`Aggregate::transition_chunk`]);
//!   [`GroupedUnit::scan`] does the same for a segment's grouped states.
//!   Routing a chunk's rows to groups is [`crate::group`]'s job — the keying
//!   pass ([`SlotDirectory::key_chunk`]) and the index sort ([`IndexSort`])
//!   that grouped scoring, `gather_groups` and `partition_by_group` use too;
//!   what is the fold's own is the choice per chunk between gathering each
//!   group directly and staging rows in radix buckets until a batch is worth
//!   a `transition_chunk`, and the discipline that keeps every group's rows
//!   in scan order across the two.  Only the ungrouped runner is resumed:
//!   calling it again with the chunks appended since continues the same
//!   state, which is how a materialized view's catch-up absorbs a suffix.
//! * **Projection** — every copy a runner makes for the aggregate holds only
//!   the columns it declares ([`Aggregate::input_columns`], resolved once per
//!   scan by [`input_projection`] / [`GroupedInput`]): a filter's
//!   compaction, the per-group gathers (into one reused sub-chunk) and the
//!   radix staging.  A grouped filter's compaction keeps the key columns as
//!   well, because the keying pass runs on the compacted chunk.  Chunks that
//!   go to the aggregate uncopied stay whole, with the table schema; an
//!   unfiltered, ungrouped scan copies nothing and resolves nothing.
//! * **Fan-out** — [`scan_units`] / [`scan_grouped_units`] run every segment
//!   of a table on the work-stealing pool ([`scan::run_per_segment`]).  A
//!   batch aggregate folds the result and throws it away; a materialized
//!   view keeps the ungrouped states behind a watermark and later advances
//!   each over the rows past it, serially on the calling thread.
//! * **Fold** — [`fold_units`] (one left-to-right merge in segment order)
//!   and [`fold_groups`] (flat per key in segment order, key-sorted,
//!   finalized on [`scan::run_per_item_with_scratch`]).  These are the only
//!   callers of [`Aggregate::merge`] in the engine, so batch ≡ refresh holds
//!   by construction.
//!
//! [`crate::reference`] feeds per-row states (materialised rows +
//! [`Aggregate::transition`]) through the same two folds; it is the bit
//! reference, not a scan path.

use crate::aggregate::Aggregate;
use crate::chunk::{RowChunk, Segment};
use crate::error::{EngineError, Result};
use crate::executor::{ExecutionStats, Executor, GroupingStats};
use crate::expr::Predicate;
use crate::group::{GroupKey, IndexSort, SlotDirectory};
use crate::scan::{self, Projection, ScanBatch, SegmentScanStats};
use crate::schema::Schema;
use crate::table::Table;
use madlib_linalg::kernels;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// How many consecutive group slots share one radix bucket.  Rows are
/// bucketed by `slot / RADIX_SLOTS_PER_BUCKET`, so a flushed bucket touches a
/// contiguous run of aggregate states (cache-friendly) and each group's
/// staged batch stays big enough for the vectorized kernels.
const RADIX_SLOTS_PER_BUCKET: usize = 16;

/// A bucket is flushed through `transition_chunk` once it has staged this
/// many rows — at that point each of its (up to
/// [`RADIX_SLOTS_PER_BUCKET`]) groups averages a batch worth gathering.
/// The same average decides between a chunk's two paths: its groups are
/// gathered directly only when they average at least as many rows as a
/// flush hands a group (`RADIX_FLUSH_ROWS / RADIX_SLOTS_PER_BUCKET`);
/// otherwise its rows are staged.  (Results do not depend on either
/// choice — `transition_chunk` overrides are bit-identical to per-row
/// transitions by contract, and staging keeps each group's row order.)
const RADIX_FLUSH_ROWS: usize = 256;

/// Upper bound on rows staged across all buckets of one runner call; when
/// exceeded, the fullest buckets are flushed early.  Bounds staging memory
/// at roughly this many rows' worth of columnar data per worker.
const RADIX_MAX_STAGED_ROWS: usize = 32 * 1024;

/// The columns `aggregate` reads of a table of `schema` — its
/// [`Aggregate::input_columns`] as table indices in table order — or `None`
/// when it may read every column, declares them all, or declares a name the
/// table lacks (so that the aggregate, handed every column, reports the
/// missing one itself).
pub(crate) fn input_projection<A: Aggregate>(aggregate: &A, schema: &Schema) -> Option<Projection> {
    let names = aggregate.input_columns()?;
    let found = names.iter().map(|name| schema.index_of(name).ok());
    let mut columns = found.collect::<Option<Vec<usize>>>()?;
    columns.sort_unstable();
    columns.dedup();
    (columns.len() < schema.arity()).then(|| Projection::new(schema, columns))
}

/// The ungrouped runner: folds the filter-surviving rows of `chunks`
/// into `state`, chunk at a time.  `input` is the aggregate's
/// [`input_projection`]; a filter's compaction copies only its columns.
pub(crate) fn advance_state<A: Aggregate>(
    aggregate: &A,
    state: &mut A::State,
    chunks: &[Arc<RowChunk>],
    schema: &Schema,
    filter: Option<&Predicate>,
    input: Option<&Projection>,
) -> Result<SegmentScanStats> {
    let compacted = input.map_or(schema, Projection::schema);
    scan::scan_chunks(chunks, schema, filter, input, |batch| match batch {
        ScanBatch::Full(chunk) => aggregate.transition_chunk(state, chunk, schema),
        ScanBatch::Compacted(chunk) => aggregate.transition_chunk(state, &chunk, compacted),
    })
}

/// Runs `run_segment` once per segment of `table` on the work-stealing pool
/// and collects the states in segment order.  Each segment's fold is timed
/// with two clock reads, none per chunk.
fn fan_out<U: Send>(
    table: &Table,
    executor: &Executor,
    filter: Option<&Predicate>,
    run_segment: impl Fn(&Segment) -> Result<(U, SegmentScanStats)> + Sync,
) -> Result<(Vec<U>, ExecutionStats)> {
    let parallel = executor.is_parallel();
    let per_segment = scan::run_per_segment(table, parallel, filter.is_some(), |_, segment| {
        let start = Instant::now();
        run_segment(segment).map(|(state, stats)| (state, stats, start.elapsed()))
    });
    let mut stats = ExecutionStats {
        rows_scanned: 0,
        rows_aggregated: 0,
        segments: table.num_segments(),
        kernel_path: kernels::active_path(),
        busy_ns: 0,
        grouping: GroupingStats::default(),
    };
    let mut states = Vec::with_capacity(table.num_segments());
    for result in per_segment {
        let (state, segment_stats, busy) = result?;
        stats.rows_scanned += segment_stats.rows_scanned;
        stats.rows_aggregated += segment_stats.rows_passed;
        stats.busy_ns += busy.as_nanos() as u64;
        states.push(state);
    }
    Ok((states, stats))
}

/// Scans all of `table` into ungrouped per-segment states.
///
/// # Errors
/// Propagates transition and predicate errors (the earliest failing
/// segment's), and worker panics as [`crate::EngineError::WorkerPanicked`].
pub(crate) fn scan_units<A: Aggregate>(
    aggregate: &A,
    table: &Table,
    executor: &Executor,
    filter: Option<&Predicate>,
) -> Result<(Vec<A::State>, ExecutionStats)> {
    let schema = table.schema();
    // Only a filter copies rows, so only a filtered scan needs the columns.
    let input = filter.and_then(|_| input_projection(aggregate, schema));
    fan_out(table, executor, filter, |segment| {
        let mut state = aggregate.initial_state();
        let chunks = segment.chunks();
        let stats = advance_state(
            aggregate,
            &mut state,
            chunks,
            schema,
            filter,
            input.as_ref(),
        )?;
        Ok((state, stats))
    })
}

/// Scans all of `table` into grouped per-segment states, keyed by the
/// columns at `group_indices`, with the scan's statistics and what each
/// segment's runner did with its chunks ([`GroupingStats`]).
///
/// # Errors
/// As [`scan_units`].
pub(crate) fn scan_grouped_units<A: Aggregate>(
    aggregate: &A,
    table: &Table,
    executor: &Executor,
    group_indices: Vec<usize>,
    filter: Option<&Predicate>,
) -> Result<(Vec<GroupedUnit<A::State>>, ExecutionStats)> {
    let schema = table.schema();
    let columns = GroupedInput::new(aggregate, schema, group_indices);
    let (segments, mut stats) = fan_out(table, executor, filter, |segment| {
        GroupedUnit::scan(aggregate, segment.chunks(), schema, &columns, filter)
    })?;
    for unit in &segments {
        let (sum, one) = (&mut stats.grouping, unit.stats);
        sum.single_key_chunks += one.single_key_chunks;
        sum.gathered_chunks += one.gathered_chunks;
        sum.staged_chunks += one.staged_chunks;
        sum.batches += one.batches;
        sum.groups_opened += one.groups_opened;
    }
    Ok((segments, stats))
}

/// What the grouped runner reads of a table for one aggregate, resolved once
/// per scan: the key columns, the aggregate's [`input_projection`], and what
/// a filter's compaction keeps — the input columns plus the key columns,
/// which the keying pass reads after it.
struct GroupedInput {
    /// The key columns' table indices.
    keys: Vec<usize>,
    /// The aggregate's input columns; `None`: every column.
    input: Option<Projection>,
    /// `None` when the aggregate reads every column, and a compaction keeps
    /// every column too.
    compaction: Option<Compaction>,
}

/// A filtered grouped scan's compaction: the aggregate's input columns and
/// the key columns, and where each of them lands in the compacted chunk.
struct Compaction {
    kept: Projection,
    /// The key columns' positions in a compacted chunk.
    keys: Vec<usize>,
    /// The input columns' positions in a compacted chunk; `None` when the
    /// chunk holds nothing else (every key column is an input column).
    input: Option<Vec<usize>>,
}

/// The columns of one batch the grouped runner reads, by position in the
/// batch.
struct BatchColumns<'a> {
    keys: &'a [usize],
    /// The aggregate's input columns; `None`: all of the batch's columns.
    input: Option<&'a [usize]>,
    /// The schema under which the batch may go to the aggregate as it is, or
    /// `None` when it holds a column the aggregate must not be handed.
    whole: Option<&'a Schema>,
}

impl GroupedInput {
    /// Resolves the key columns at `keys` and `aggregate`'s input columns
    /// against `schema`.
    fn new<A: Aggregate>(aggregate: &A, schema: &Schema, keys: Vec<usize>) -> Self {
        let input = input_projection(aggregate, schema);
        let compaction = input.as_ref().map(|input| {
            let mut kept: Vec<usize> = input.columns().iter().chain(&keys).copied().collect();
            kept.sort_unstable();
            kept.dedup();
            let at = |c: &usize| {
                kept.binary_search(c)
                    .expect("every key and input column is kept")
            };
            Compaction {
                keys: keys.iter().map(at).collect(),
                input: (kept.len() > input.columns().len())
                    .then(|| input.columns().iter().map(at).collect()),
                kept: Projection::new(schema, kept),
            }
        });
        Self {
            keys,
            input,
            compaction,
        }
    }

    /// The schema of the chunks the runner builds for the aggregate.
    fn schema<'a>(&'a self, table: &'a Schema) -> &'a Schema {
        self.input.as_ref().map_or(table, Projection::schema)
    }

    /// Where the runner finds what it reads in `batch`.
    fn columns<'a>(&'a self, batch: &ScanBatch<'_>, table: &'a Schema) -> BatchColumns<'a> {
        match (batch, &self.compaction) {
            (ScanBatch::Compacted(_), Some(compaction)) => BatchColumns {
                keys: &compaction.keys,
                input: compaction.input.as_deref(),
                whole: compaction.input.is_none().then(|| self.schema(table)),
            },
            // A whole chunk, or a compaction that kept every column.
            _ => BatchColumns {
                keys: &self.keys,
                input: self.input.as_ref().map(Projection::columns),
                whole: Some(table),
            },
        }
    }
}

/// Folds per-segment states into one, merging left-to-right in segment
/// order; no state at all is `initial_state()`.
pub(crate) fn fold_units<A: Aggregate>(
    aggregate: &A,
    states: impl IntoIterator<Item = A::State>,
) -> A::State {
    states
        .into_iter()
        .reduce(|left, right| aggregate.merge(left, right))
        .unwrap_or_else(|| aggregate.initial_state())
}

/// Folds per-group states — arriving in segment order — flat per key,
/// left-to-right, and finalizes every group, returning outputs
/// sorted by key.  Groups are independent, so finalize fans out over the
/// work-stealing pool when `parallel`, each worker reusing one
/// [`crate::FinalizeScratch`]; scheduling never affects the outputs.
///
/// # Errors
/// Propagates finalize errors; a finalize worker panic surfaces as
/// [`crate::EngineError::WorkerPanicked`].
pub(crate) fn fold_groups<A: Aggregate>(
    aggregate: &A,
    states: impl IntoIterator<Item = (GroupKey, A::State)>,
    parallel: bool,
) -> Result<Vec<(GroupKey, A::Output)>>
where
    A::Output: Send,
{
    let mut merged: HashMap<GroupKey, A::State> = HashMap::new();
    for (key, state) in states {
        let combined = match merged.remove(&key) {
            None => state,
            Some(prev) => aggregate.merge(prev, state),
        };
        merged.insert(key, combined);
    }
    let mut entries: Vec<(GroupKey, A::State)> = merged.into_iter().collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));

    let finalized = scan::run_per_item_with_scratch(
        entries,
        parallel,
        || aggregate.make_finalize_scratch(),
        |_, (key, state), scratch| {
            aggregate
                .finalize_with(state, scratch)
                .map(|output| (key, output))
        },
    );
    // Outer Err = worker panic; inner Err = finalize failure.
    finalized.into_iter().map(|slot| slot?).collect()
}

/// One segment's grouped partial states: its slot directory and, in a flat
/// vector indexed by slot, one state per distinct key — plus what the
/// runner did with the segment's chunks.
pub(crate) struct GroupedUnit<S> {
    directory: SlotDirectory,
    states: Vec<S>,
    stats: GroupingStats,
}

impl<S> GroupedUnit<S> {
    /// The `(key, state)` pairs, by value.
    pub(crate) fn into_states(self) -> impl Iterator<Item = (GroupKey, S)> {
        self.directory.into_keys().zip(self.states)
    }

    /// The grouped runner: folds the filter-surviving rows of one segment's
    /// `chunks` into their groups' states, chunk at a time.  Each chunk goes
    /// through the keying pass ([`SlotDirectory::key_chunk`]); a single-key
    /// chunk is one batch, a chunk whose groups average a flush's rows per
    /// group ([`RADIX_FLUSH_ROWS`]) is gathered group by group, in row order,
    /// into one reused sub-chunk for [`Aggregate::transition_chunk`], and any
    /// other chunk stages its rows into radix buckets, which flush in batches
    /// and are all drained before returning, so the states are complete.
    /// Gathers and staging copy only the aggregate's input columns
    /// (`columns`), and so does a filter's compaction, plus the key columns.
    fn scan<A: Aggregate<State = S>>(
        aggregate: &A,
        chunks: &[Arc<RowChunk>],
        schema: &Schema,
        columns: &GroupedInput,
        filter: Option<&Predicate>,
    ) -> Result<(Self, SegmentScanStats)> {
        let mut directory = SlotDirectory::default();
        let mut states = Vec::new();
        let mut stats = GroupingStats::default();
        // The current chunk as the keying pass left it: every row's slot, the
        // chunk's distinct slots, and the sort that gathers by them.
        let mut keyed = IndexSort::default();
        // The schema of every chunk the runner builds: the input columns'.
        let input_schema = columns.schema(schema);
        // Rows of high-cardinality chunks waiting to be batched.
        let mut staging = RadixStaging::new(input_schema);
        let compaction = columns.compaction.as_ref().map(|c| &c.kept);
        let scanned = scan::scan_chunks(chunks, schema, filter, compaction, |scanned| {
            let at = columns.columns(&scanned, schema);
            let chunk = scanned.chunk();
            directory.key_chunk(chunk, at.keys, &mut keyed, |_| {
                states.push(aggregate.initial_state());
                Ok::<(), EngineError>(())
            })?;
            let runs = keyed.runs();
            let whole = at.whole.filter(|_| runs.len() == 1);
            if whole.is_none()
                && chunk.len() * RADIX_SLOTS_PER_BUCKET < runs.len() * RADIX_FLUSH_ROWS
            {
                // The radix partition pass: the groups average less than a
                // flush's batch, so their rows wait in slot-range buckets
                // for rows of the same groups from later chunks.
                stats.staged_chunks += 1;
                return staging.stage(aggregate, &mut states, chunk, at.input, keyed.keys());
            }
            // A direct chunk.  Buckets holding staged rows of its groups
            // flush first, to keep each group's rows in scan order.
            if staging.staged_total > 0 {
                for &(slot, _) in runs {
                    let bucket = slot as usize / RADIX_SLOTS_PER_BUCKET;
                    staging.flush_bucket(aggregate, &mut states, bucket)?;
                }
            }
            stats.batches += runs.len() as u64;
            if let Some(whole) = whole {
                // Single-key chunk: the whole chunk is one group's batch.
                stats.single_key_chunks += 1;
                return aggregate.transition_chunk(&mut states[runs[0].0 as usize], chunk, whole);
            }
            // The groups average a flush's batch: gather each group's rows —
            // in row order — into the scratch sub-chunk.
            stats.gathered_chunks += 1;
            for (slot, indices) in keyed.sorted() {
                staging.batch.clear();
                staging.batch.append_columns(chunk, at.input, indices);
                let state = &mut states[slot as usize];
                aggregate.transition_chunk(state, &staging.batch, input_schema)?;
            }
            Ok(())
        })?;

        // End of the segment: drain every bucket, so the states are
        // complete.  Cross-group order is free (each group's state is
        // independent); per-group order was preserved by the staging
        // discipline.
        for bucket in 0..staging.buckets.len() {
            staging.flush_bucket(aggregate, &mut states, bucket)?;
        }
        debug_assert_eq!(staging.staged_total, 0);
        stats.batches += staging.batches;
        stats.groups_opened = states.len() as u64;
        let unit = Self {
            directory,
            states,
            stats,
        };
        Ok((unit, scanned))
    }
}

/// Radix staging for high-cardinality chunks: one bucket per contiguous run
/// of [`RADIX_SLOTS_PER_BUCKET`] slots, holding rows copied out of their
/// source chunks until the bucket is worth batching.
struct RadixStaging<'a> {
    /// The schema of the staged rows: the aggregate's input columns'.
    schema: &'a Schema,
    buckets: Vec<StagedBucket>,
    staged_total: usize,
    /// `transition_chunk` calls its flushes made.
    batches: u64,
    /// Sorts a staged chunk's rows by bucket; its runs are the buckets the
    /// latest staged chunk touched.
    by_bucket: IndexSort,
    /// Sorts a flushing bucket's staged rows by slot.
    by_slot: IndexSort,
    /// The one sub-chunk every per-group gather refills — the runner's
    /// direct gathers and the flushes alike.
    batch: RowChunk,
}

/// One radix bucket of the high-cardinality grouped scan: the staged rows of
/// a contiguous run of [`RADIX_SLOTS_PER_BUCKET`] group slots, appended in
/// scan order (so each group's rows stay in row order), plus each staged
/// row's slot — recorded at staging time so a flush never re-derives keys.
struct StagedBucket {
    rows: RowChunk,
    slots: Vec<u32>,
}

impl<'a> RadixStaging<'a> {
    /// Empty staging for rows of `schema`.
    fn new(schema: &'a Schema) -> Self {
        Self {
            schema,
            buckets: Vec::new(),
            staged_total: 0,
            batches: 0,
            by_bucket: IndexSort::default(),
            by_slot: IndexSort::default(),
            batch: RowChunk::new(schema),
        }
    }

    /// Flushes one radix bucket (if it exists and holds rows): sorts the
    /// staged row indices by group slot (stable, so each group's rows keep
    /// their scan order), gathers every group's batch into the scratch
    /// sub-chunk and feeds it to [`Aggregate::transition_chunk`].  Clears the
    /// bucket in place afterwards, keeping its grown buffers for the next
    /// staging round.
    fn flush_bucket<A: Aggregate>(
        &mut self,
        aggregate: &A,
        states: &mut [A::State],
        bucket_id: usize,
    ) -> Result<()> {
        let Some(bucket) = self
            .buckets
            .get_mut(bucket_id)
            .filter(|b| !b.slots.is_empty())
        else {
            return Ok(());
        };
        self.staged_total -= bucket.slots.len();
        self.by_slot.fill(bucket.slots.iter().copied());
        self.batches += self.by_slot.runs().len() as u64;
        if let [(slot, _)] = self.by_slot.runs()[..] {
            // Single-group bucket: the whole staged chunk is one batch.
            aggregate.transition_chunk(&mut states[slot as usize], &bucket.rows, self.schema)?;
        } else {
            for (slot, indices) in self.by_slot.sorted() {
                self.batch.clear();
                self.batch.append_columns(&bucket.rows, None, indices);
                aggregate.transition_chunk(&mut states[slot as usize], &self.batch, self.schema)?;
            }
        }
        bucket.rows.clear();
        bucket.slots.clear();
        Ok(())
    }

    /// Stages one high-cardinality chunk's rows (keyed by `row_slots`) into
    /// their slot-range buckets: sorts the row indices by bucket (stable,
    /// preserving row order) and appends each bucket's run of the input
    /// `columns` (`None`: every column) to its staging chunk in one
    /// [`RowChunk::append_columns`] call.  Then flushes the buckets that
    /// reached [`RADIX_FLUSH_ROWS`] — only buckets this chunk staged into can
    /// have newly crossed it — and, past [`RADIX_MAX_STAGED_ROWS`], the
    /// fullest ones.
    fn stage<A: Aggregate>(
        &mut self,
        aggregate: &A,
        states: &mut [A::State],
        chunk: &RowChunk,
        columns: Option<&[usize]>,
        row_slots: &[u32],
    ) -> Result<()> {
        // One (possibly empty) bucket per run of slots, so every slot has a
        // bucket to stage into.
        let wanted = states.len().div_ceil(RADIX_SLOTS_PER_BUCKET);
        if self.buckets.len() < wanted {
            let schema = self.schema;
            self.buckets.resize_with(wanted, || StagedBucket {
                rows: RowChunk::new(schema),
                slots: Vec::new(),
            });
        }
        let bucket_of = |&slot: &u32| slot / RADIX_SLOTS_PER_BUCKET as u32;
        self.by_bucket.fill(row_slots.iter().map(bucket_of));
        for (b, indices) in self.by_bucket.sorted() {
            let bucket = &mut self.buckets[b as usize];
            bucket.rows.append_columns(chunk, columns, indices);
            bucket
                .slots
                .extend(indices.iter().map(|&i| row_slots[i as usize]));
            self.staged_total += indices.len();
        }
        for touched in 0..self.by_bucket.runs().len() {
            let bucket = self.by_bucket.runs()[touched].0 as usize;
            if self.buckets[bucket].slots.len() >= RADIX_FLUSH_ROWS {
                self.flush_bucket(aggregate, states, bucket)?;
            }
        }
        // Bound staging memory by draining the fullest buckets (a scan of
        // every bucket, but only reached when the cap is exceeded; staged
        // rows live in buckets, so a fullest one exists).
        while self.staged_total > RADIX_MAX_STAGED_ROWS {
            let buckets = 0..self.buckets.len();
            let Some(fullest) = buckets.max_by_key(|&b| self.buckets[b].slots.len()) else {
                break;
            };
            self.flush_bucket(aggregate, states, fullest)?;
        }
        Ok(())
    }
}
