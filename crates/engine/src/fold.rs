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
//!   [`GroupedUnit::advance`] does the same for a grouped one.  Routing a
//!   chunk's rows to groups is [`crate::group`]'s job — the keying pass
//!   ([`SlotDirectory::key_chunk`]) and the index sort ([`IndexSort`]) that
//!   grouped scoring, `gather_groups` and `partition_by_group` use too; what
//!   is the fold's own is the choice per chunk between gathering each group
//!   directly and staging rows in radix buckets until a batch is worth a
//!   `transition_chunk`, and the discipline that keeps every group's rows in
//!   scan order across the two.  Both runners are *resumable*: calling them
//!   again with the chunks appended since continues the same state, which is
//!   how a materialized view absorbs a suffix.
//! * **Projection** — every copy a runner makes for the aggregate holds only
//!   the columns it declares ([`Aggregate::input_columns`], resolved once per
//!   scan or absorb by [`input_projection`] / [`GroupedInput`]): a filter's
//!   compaction, the per-group gathers (into one reused sub-chunk) and the
//!   radix staging.  A grouped filter's compaction keeps the key columns as
//!   well, because the keying pass runs on the compacted chunk.  Chunks that
//!   go to the aggregate uncopied stay whole, with the table schema; an
//!   unfiltered, ungrouped scan copies nothing and resolves nothing.
//! * **Fan-out** — [`scan_units`] / [`scan_grouped_units`] run every segment
//!   of a table on the work-stealing pool ([`scan::run_per_segment`]).  A
//!   batch aggregate folds the result and throws it away; a materialized
//!   view keeps it behind a watermark and later advances each state over
//!   the rows past it, serially on the calling thread.
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
use crate::executor::{ExecutionStats, Executor};
use crate::expr::Predicate;
use crate::group::{GroupKey, IndexSort, SlotDirectory};
use crate::scan::{self, Projection, ScanBatch, SegmentScanStats};
use crate::schema::Schema;
use crate::table::Table;
use std::collections::HashMap;
use std::sync::Arc;

/// Once the mean rows-per-group within a chunk drops below this, the grouped
/// scan stops gathering per-group sub-chunks directly and switches to the
/// radix partition pass: a gather that yields only a couple of rows costs
/// more than the vectorized kernel saves, so high-cardinality chunks stage
/// their rows by group-slot bucket instead and batch each group across many
/// chunks.  (Equality of results does not depend on the threshold —
/// `transition_chunk` overrides are bit-identical to per-row transitions by
/// contract, and staging preserves each group's row order — so this is
/// purely a performance knob.)
const MIN_ROWS_PER_GROUP_FOR_GATHER: usize = 4;

/// How many consecutive group slots share one radix bucket.  Rows are
/// bucketed by `slot / RADIX_SLOTS_PER_BUCKET`, so a flushed bucket touches a
/// contiguous run of aggregate states (cache-friendly) and each group's
/// staged batch stays big enough for the vectorized kernels.
const RADIX_SLOTS_PER_BUCKET: usize = 16;

/// A bucket is flushed through `transition_chunk` once it has staged this
/// many rows — at that point each of its (up to
/// [`RADIX_SLOTS_PER_BUCKET`]) groups averages a batch worth gathering.
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
/// and collects the states in segment order.
fn fan_out<U: Send>(
    table: &Table,
    executor: &Executor,
    run_segment: impl Fn(&Segment) -> Result<(U, SegmentScanStats)> + Sync,
) -> Result<(Vec<U>, ExecutionStats)> {
    let per_segment = scan::run_per_segment(table, executor.is_parallel(), |_, segment| {
        run_segment(segment)
    });
    let mut stats = ExecutionStats {
        rows_scanned: 0,
        rows_aggregated: 0,
        segments: table.num_segments(),
    };
    let mut states = Vec::with_capacity(table.num_segments());
    for result in per_segment {
        let (state, segment_stats) = result?;
        stats.rows_scanned += segment_stats.rows_scanned;
        stats.rows_aggregated += segment_stats.rows_passed;
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
    fan_out(table, executor, |segment| {
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
/// columns at `group_indices`.
///
/// # Errors
/// As [`scan_units`].
pub(crate) fn scan_grouped_units<A: Aggregate>(
    aggregate: &A,
    table: &Table,
    executor: &Executor,
    columns: &GroupedInput,
    filter: Option<&Predicate>,
) -> Result<Vec<GroupedUnit<A::State>>> {
    let schema = table.schema();
    let (segments, _) = fan_out(table, executor, |segment| {
        let mut unit = GroupedUnit::default();
        let stats = unit.advance(
            aggregate,
            segment.chunks(),
            schema,
            columns,
            filter,
            &mut GroupScratch::default(),
        )?;
        Ok((unit, stats))
    })?;
    Ok(segments)
}

/// What the grouped runner reads of a table for one aggregate, resolved once
/// per scan (or view absorb): the key columns, the aggregate's
/// [`input_projection`], and what a filter's compaction keeps — the input
/// columns plus the key columns, which the keying pass reads after it.
pub(crate) struct GroupedInput {
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
    pub(crate) fn new<A: Aggregate>(aggregate: &A, schema: &Schema, keys: Vec<usize>) -> Self {
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
/// vector indexed by slot, one state per distinct key.
pub(crate) struct GroupedUnit<S> {
    directory: SlotDirectory,
    states: Vec<S>,
}

impl<S> Default for GroupedUnit<S> {
    fn default() -> Self {
        Self {
            directory: SlotDirectory::default(),
            states: Vec::new(),
        }
    }
}

impl<S> GroupedUnit<S> {
    /// The `(key, state)` pairs, by value.
    pub(crate) fn into_states(self) -> impl Iterator<Item = (GroupKey, S)> {
        self.directory.into_keys().zip(self.states)
    }

    /// The `(key, state)` pairs, cloned.  (A key appears once per segment,
    /// so the order within a segment never reaches [`fold_groups`]' per-key
    /// merge order.)
    pub(crate) fn cloned_states(&self) -> impl Iterator<Item = (GroupKey, S)> + '_
    where
        S: Clone,
    {
        (self.directory.keys().iter().cloned()).zip(self.states.iter().cloned())
    }

    /// The grouped runner: folds the filter-surviving rows of `chunks`
    /// into their groups' states, chunk at a time.  Each chunk goes through
    /// the keying pass ([`SlotDirectory::key_chunk`]); groups big enough to
    /// batch are gathered, in row order, into `scratch`'s sub-chunk for
    /// [`Aggregate::transition_chunk`], and high-cardinality chunks stage
    /// their rows into `scratch`'s radix buckets, which flush in batches and
    /// are all drained before returning — so the states are complete
    /// after every call, and a later call (with any drained scratch) resumes
    /// them.  Gathers and staging copy only the aggregate's input columns
    /// (`columns`), and so does a filter's compaction, plus the key columns.
    /// After an error the scratch may still hold staged rows and must be
    /// discarded.
    pub(crate) fn advance<A: Aggregate<State = S>>(
        &mut self,
        aggregate: &A,
        chunks: &[Arc<RowChunk>],
        schema: &Schema,
        columns: &GroupedInput,
        filter: Option<&Predicate>,
        scratch: &mut GroupScratch,
    ) -> Result<SegmentScanStats> {
        let Self { directory, states } = self;
        let GroupScratch {
            keyed,
            staging,
            batch,
        } = scratch;
        // The schema of every chunk the runner builds: the input columns'.
        let input_schema = columns.schema(schema);
        let batch = batch.get_or_insert_with(|| RowChunk::new(input_schema));
        let compaction = columns.compaction.as_ref().map(|c| &c.kept);
        let stats = scan::scan_chunks(chunks, schema, filter, compaction, |scanned| {
            let at = columns.columns(&scanned, schema);
            let chunk = scanned.chunk();
            directory.key_chunk(chunk, at.keys, keyed, |_| {
                states.push(aggregate.initial_state());
                Ok::<(), EngineError>(())
            })?;
            // Keep one (possibly empty) bucket per run of slots, so every slot
            // has a bucket to stage into or flush from.
            let wanted = states.len().div_ceil(RADIX_SLOTS_PER_BUCKET);
            if staging.buckets.len() < wanted {
                staging
                    .buckets
                    .resize_with(wanted, || StagedBucket::new(input_schema));
            }

            if let (&[(slot, _)], Some(whole)) = (keyed.runs(), at.whole) {
                // Single-key chunk: the whole chunk is one group's batch.  Any
                // staged rows of this group's bucket must run first to keep the
                // group's row order.
                let bucket = slot as usize / RADIX_SLOTS_PER_BUCKET;
                staging.flush_bucket(aggregate, input_schema, states, batch, bucket)?;
                return aggregate.transition_chunk(&mut states[slot as usize], chunk, whole);
            }

            if chunk.len() >= keyed.runs().len() * MIN_ROWS_PER_GROUP_FOR_GATHER {
                // Batches are big enough for the vectorized kernels: gather
                // each group's rows — in row order — into the scratch
                // sub-chunk.  Buckets holding staged rows of this chunk's
                // groups flush first (order again).
                if staging.staged_total > 0 {
                    for &(slot, _) in keyed.runs() {
                        let bucket = slot as usize / RADIX_SLOTS_PER_BUCKET;
                        staging.flush_bucket(aggregate, input_schema, states, batch, bucket)?;
                    }
                }
                for (slot, indices) in keyed.sorted() {
                    batch.clear();
                    batch.append_columns(chunk, at.input, indices);
                    aggregate.transition_chunk(&mut states[slot as usize], batch, input_schema)?;
                }
            } else {
                // High-cardinality chunk — the radix partition pass.  Sort the
                // row indices into slot-range buckets and append each
                // bucket's rows (columnar copies, no Row materialization) to its
                // staging chunk; groups batch up across chunks and flush through
                // transition_chunk once their bucket is full.  Per-group row
                // order is preserved: a group's rows route through exactly one
                // bucket, in scan order.
                staging.stage_chunk_rows(chunk, at.input, keyed.keys());
                // Flush buckets that reached a batch worth of rows — only the
                // buckets staged into by *this* chunk can have newly crossed
                // the threshold, so the check is O(buckets touched), not
                // O(all buckets).
                for touched in 0..staging.by_bucket.runs().len() {
                    let bucket = staging.by_bucket.runs()[touched].0 as usize;
                    if staging.buckets[bucket].len() >= RADIX_FLUSH_ROWS {
                        staging.flush_bucket(aggregate, input_schema, states, batch, bucket)?;
                    }
                }
                // Bound total staging memory by draining the fullest buckets
                // (global scan, but only reached when the cap is exceeded).
                while staging.staged_total > RADIX_MAX_STAGED_ROWS {
                    // Staged rows live in buckets, so a fullest one exists.
                    let Some(fullest) =
                        (0..staging.buckets.len()).max_by_key(|&b| staging.buckets[b].len())
                    else {
                        break;
                    };
                    staging.flush_bucket(aggregate, input_schema, states, batch, fullest)?;
                }
            }
            Ok(())
        })?;

        // End of call: drain every bucket, so the states are complete and
        // the scratch is reusable by any segment.  Cross-group order is free
        // (each group's state is independent); per-group order was preserved
        // by the staging discipline.
        if staging.staged_total > 0 {
            for bucket in 0..staging.buckets.len() {
                staging.flush_bucket(aggregate, input_schema, states, batch, bucket)?;
            }
        }
        debug_assert_eq!(staging.staged_total, 0);
        Ok(stats)
    }
}

/// Per-call scratch of [`GroupedUnit::advance`], reusable across chunks,
/// calls and segments because every successful call leaves it drained: a
/// batch scan makes one per segment, a materialized view keeps one for all
/// its absorbs.  Its chunks are shaped by the first call's input columns;
/// a view starts a fresh scratch whenever it rescans.
#[derive(Default)]
pub(crate) struct GroupScratch {
    /// The current chunk as the keying pass left it: every row's slot, the
    /// chunk's distinct slots, and the sort that gathers by them.
    keyed: IndexSort,
    /// Rows of high-cardinality chunks waiting to be batched.
    staging: RadixStaging,
    /// The one sub-chunk every per-group gather refills.
    batch: Option<RowChunk>,
}

/// Radix staging for high-cardinality chunks: one bucket per contiguous run
/// of [`RADIX_SLOTS_PER_BUCKET`] slots, holding rows copied out of their
/// source chunks until the bucket is worth batching.
#[derive(Default)]
struct RadixStaging {
    buckets: Vec<StagedBucket>,
    staged_total: usize,
    /// Sorts a staged chunk's rows by bucket; its runs are the buckets the
    /// latest staged chunk touched.
    by_bucket: IndexSort,
    /// Sorts a flushing bucket's staged rows by slot.
    by_slot: IndexSort,
}

/// One radix bucket of the high-cardinality grouped scan: the staged rows of
/// a contiguous run of [`RADIX_SLOTS_PER_BUCKET`] group slots, appended in
/// scan order (so each group's rows stay in row order), plus each staged
/// row's slot — recorded at staging time so a flush never re-derives keys.
struct StagedBucket {
    rows: RowChunk,
    slots: Vec<u32>,
}

impl StagedBucket {
    fn new(schema: &Schema) -> Self {
        Self {
            rows: RowChunk::new(schema),
            slots: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

impl RadixStaging {
    /// Flushes one radix bucket: sorts the staged row indices by group slot
    /// (stable, so each group's rows keep their scan order), gathers every
    /// group's batch into the scratch sub-chunk `batch` and feeds it to
    /// [`Aggregate::transition_chunk`].  Clears the bucket in place
    /// afterwards, keeping its grown buffers for the next staging round.
    fn flush_bucket<A: Aggregate>(
        &mut self,
        aggregate: &A,
        schema: &Schema,
        states: &mut [A::State],
        batch: &mut RowChunk,
        bucket_id: usize,
    ) -> Result<()> {
        let bucket = &mut self.buckets[bucket_id];
        if bucket.len() == 0 {
            return Ok(());
        }
        self.staged_total -= bucket.len();
        self.by_slot.fill(bucket.slots.iter().copied());
        if let [(slot, _)] = self.by_slot.runs()[..] {
            // Single-group bucket: the whole staged chunk is one batch.
            aggregate.transition_chunk(&mut states[slot as usize], &bucket.rows, schema)?;
        } else {
            for (slot, indices) in self.by_slot.sorted() {
                batch.clear();
                batch.append_columns(&bucket.rows, None, indices);
                aggregate.transition_chunk(&mut states[slot as usize], batch, schema)?;
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
    /// [`RowChunk::append_columns`] call.
    fn stage_chunk_rows(&mut self, chunk: &RowChunk, columns: Option<&[usize]>, row_slots: &[u32]) {
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
    }
}
