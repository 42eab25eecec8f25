//! One fold: the per-unit partial states every aggregation scan produces,
//! the runners that produce them, and the merge hierarchy that consumes
//! them.
//!
//! The paper's scale-out contract is `transition` / `merge` / `final`, with
//! only the small states crossing segments.  This module is the engine's one
//! implementation of that contract:
//!
//! * **Currency** — `Vec<Vec<U>>`: per segment, one partial state per steal
//!   unit in range order (aligned with [`scan::chunk_range_units`]: one per
//!   segment at [`scan::StealGranularity::Segment`], one per
//!   [`scan::CHUNKS_PER_UNIT`]-chunk run at
//!   [`scan::StealGranularity::ChunkRange`]).  An ungrouped unit is an
//!   `A::State`; a grouped unit is a [`GroupedUnit`] (slot directory +
//!   per-slot states).
//! * **Runners** — [`advance_state`] folds a run of chunks into an ungrouped
//!   unit ([`scan::scan_chunks`] + [`Aggregate::transition_chunk`]);
//!   [`GroupedUnit::advance`] does the same for a grouped unit (hash
//!   grouping with direct gathers or radix staging).  Both are *resumable*:
//!   calling them again with the chunks appended since continues the same
//!   state, which is how a materialized view absorbs a suffix.
//! * **Fan-out** — [`scan_units`] / [`scan_grouped_units`] run every unit of
//!   a table on the work-stealing pool.  A batch aggregate folds the result
//!   and throws it away; a materialized view keeps it behind a watermark and
//!   later advances only the units past it, serially on the calling thread.
//! * **Fold** — [`fold_units`] (merge in range order within a segment, in
//!   segment order across) and [`fold_groups`] (flat per key in (segment,
//!   unit) order, key-sorted, finalized on
//!   [`scan::run_per_item_with_scratch`]).  These are the only callers of
//!   [`Aggregate::merge`] in the engine, so batch ≡ refresh holds by
//!   construction.
//!
//! [`ExecutionMode::RowAtATime`] plugs its reference loops
//! ([`scan::scan_segment_rows`] + [`Aggregate::transition`]) into the same
//! fan-out and fold at whole-segment granularity.

use crate::aggregate::Aggregate;
use crate::chunk::{RowChunk, Segment};
use crate::error::Result;
use crate::executor::{ExecutionMode, ExecutionStats, Executor};
use crate::expr::Predicate;
use crate::group::GroupKey;
use crate::row::Row;
use crate::scan::{self, SegmentScanStats};
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

/// The ungrouped unit runner: folds the filter-surviving rows of `chunks`
/// into `state`, chunk at a time.
pub(crate) fn advance_state<A: Aggregate>(
    aggregate: &A,
    state: &mut A::State,
    chunks: &[Arc<RowChunk>],
    schema: &Schema,
    filter: Option<&Predicate>,
) -> Result<SegmentScanStats> {
    scan::scan_chunks(chunks, schema, filter, |batch| {
        aggregate.transition_chunk(state, batch.chunk(), schema)
    })
}

/// Runs `run_unit` once per steal unit of `table` on the work-stealing pool
/// and collects each segment's unit states in range order.  The unit
/// decomposition depends only on the table and the executor's granularity,
/// never on the worker count.
fn fan_out<U: Send>(
    table: &Table,
    executor: &Executor,
    run_unit: impl Fn(scan::ChunkRange, &Segment) -> Result<(U, SegmentScanStats)> + Sync,
) -> Result<(Vec<Vec<U>>, ExecutionStats)> {
    let per_segment = scan::run_per_segment_ranged(
        table,
        executor.is_parallel(),
        executor.aggregate_granularity(),
        |range, segment| run_unit(range, segment).map(|unit| vec![unit]),
        |mut units, more| {
            units.extend(more);
            units
        },
    );
    let mut stats = ExecutionStats {
        rows_scanned: 0,
        rows_aggregated: 0,
        segments: table.num_segments(),
    };
    let mut segments = Vec::with_capacity(table.num_segments());
    for result in per_segment {
        let mut units = Vec::new();
        for (unit, unit_stats) in result? {
            stats.rows_scanned += unit_stats.rows_scanned;
            stats.rows_aggregated += unit_stats.rows_passed;
            units.push(unit);
        }
        segments.push(units);
    }
    Ok((segments, stats))
}

/// Scans all of `table` into ungrouped unit states.
///
/// # Errors
/// Propagates transition and predicate errors (the earliest failing
/// segment's), and worker panics as [`crate::EngineError::WorkerPanicked`].
pub(crate) fn scan_units<A: Aggregate>(
    aggregate: &A,
    table: &Table,
    executor: &Executor,
    filter: Option<&Predicate>,
) -> Result<(Vec<Vec<A::State>>, ExecutionStats)> {
    let schema = table.schema();
    fan_out(table, executor, |range, segment| {
        let mut state = aggregate.initial_state();
        let stats = match executor.mode() {
            ExecutionMode::Chunked => {
                advance_state(aggregate, &mut state, range.chunks(segment), schema, filter)?
            }
            // Row-at-a-time scans run at Segment granularity only, so the
            // range always covers the whole segment here.
            ExecutionMode::RowAtATime => scan::scan_segment_rows(segment, schema, filter, |row| {
                aggregate.transition(&mut state, row, schema)
            })?,
        };
        Ok((state, stats))
    })
}

/// Scans all of `table` into grouped unit states, keyed by the columns at
/// `group_indices`.
///
/// # Errors
/// As [`scan_units`].
pub(crate) fn scan_grouped_units<A: Aggregate>(
    aggregate: &A,
    table: &Table,
    executor: &Executor,
    group_indices: &[usize],
    filter: Option<&Predicate>,
) -> Result<Vec<Vec<GroupedUnit<A::State>>>> {
    let schema = table.schema();
    let (segments, _) = fan_out(table, executor, |range, segment| {
        let mut unit = GroupedUnit::default();
        let stats = match executor.mode() {
            ExecutionMode::Chunked => unit.advance(
                aggregate,
                range.chunks(segment),
                schema,
                group_indices,
                filter,
                &mut GroupScratch::default(),
            )?,
            ExecutionMode::RowAtATime => {
                unit.advance_by_rows(aggregate, segment, schema, group_indices, filter)?
            }
        };
        Ok((unit, stats))
    })?;
    Ok(segments)
}

/// Folds unit states into one: per segment the units merge left-to-right in
/// range order, then the per-segment states merge left-to-right in segment
/// order.  An empty level contributes `initial_state()`.
pub(crate) fn fold_units<A, I>(aggregate: &A, segments: I) -> A::State
where
    A: Aggregate,
    I: IntoIterator,
    I::Item: IntoIterator<Item = A::State>,
{
    let fold = |states: &mut dyn Iterator<Item = A::State>| {
        states
            .reduce(|left, right| aggregate.merge(left, right))
            .unwrap_or_else(|| aggregate.initial_state())
    };
    fold(
        &mut segments
            .into_iter()
            .map(|units| fold(&mut units.into_iter())),
    )
}

/// Folds per-group unit states — arriving in (segment, unit) order — flat
/// per key, left-to-right, and finalizes every group, returning outputs
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

/// The (possibly composite) group key of a materialized row.
pub(crate) fn group_key_of_row(row: &Row, group_indices: &[usize]) -> GroupKey {
    match group_indices {
        [idx] => GroupKey::from_value(row.get(*idx)),
        many => GroupKey::from_values(many.iter().map(|&i| row.get(i))),
    }
}

/// One grouped unit's partial states: each distinct key is hashed into a
/// dense slot exactly once per row, and states live in a flat vector indexed
/// by slot.
pub(crate) struct GroupedUnit<S> {
    slots: HashMap<GroupKey, u32>,
    states: Vec<S>,
}

impl<S> Default for GroupedUnit<S> {
    fn default() -> Self {
        Self {
            slots: HashMap::new(),
            states: Vec::new(),
        }
    }
}

impl<S> GroupedUnit<S> {
    /// The unit's `(key, state)` pairs, by value.
    pub(crate) fn into_states(self) -> impl Iterator<Item = (GroupKey, S)> {
        let mut keys: Vec<(GroupKey, u32)> = self.slots.into_iter().collect();
        keys.sort_unstable_by_key(|(_, slot)| *slot);
        keys.into_iter().map(|(key, _)| key).zip(self.states)
    }

    /// The unit's `(key, state)` pairs, cloned.  (A key appears once per
    /// unit, so the order within a unit never reaches [`fold_groups`]'
    /// per-key merge order.)
    pub(crate) fn cloned_states(&self) -> impl Iterator<Item = (GroupKey, S)> + '_
    where
        S: Clone,
    {
        self.slots
            .iter()
            .map(|(key, &slot)| (key.clone(), self.states[slot as usize].clone()))
    }

    /// The dense slot of `key`, created with an initial state on first
    /// sight.
    fn slot_of<A: Aggregate<State = S>>(&mut self, aggregate: &A, key: &GroupKey) -> u32 {
        if let Some(&slot) = self.slots.get(key) {
            return slot;
        }
        let slot = self.states.len() as u32;
        self.states.push(aggregate.initial_state());
        self.slots.insert(key.clone(), slot);
        slot
    }

    /// The row-at-a-time reference runner: keys and transitions every
    /// filter-surviving row of `segment` individually.
    fn advance_by_rows<A: Aggregate<State = S>>(
        &mut self,
        aggregate: &A,
        segment: &Segment,
        schema: &Schema,
        group_indices: &[usize],
        filter: Option<&Predicate>,
    ) -> Result<SegmentScanStats> {
        scan::scan_segment_rows(segment, schema, filter, |row| {
            let slot = self.slot_of(aggregate, &group_key_of_row(row, group_indices));
            aggregate.transition(&mut self.states[slot as usize], row, schema)
        })
    }

    /// The grouped unit runner: folds the filter-surviving rows of `chunks`
    /// into their groups' states, chunk at a time.  Each chunk is
    /// partitioned by key; groups big enough to batch are gathered, in row
    /// order, into compacted sub-chunks for [`Aggregate::transition_chunk`],
    /// and high-cardinality chunks stage their rows into `scratch`'s radix
    /// buckets, which flush in batches and are all drained before returning
    /// — so the unit's states are complete after every call, and a later
    /// call (with any drained scratch) resumes them.  After an error the
    /// scratch may still hold staged rows and must be discarded.
    pub(crate) fn advance<A: Aggregate<State = S>>(
        &mut self,
        aggregate: &A,
        chunks: &[Arc<RowChunk>],
        schema: &Schema,
        group_indices: &[usize],
        filter: Option<&Predicate>,
        scratch: &mut GroupScratch,
    ) -> Result<SegmentScanStats> {
        let stats = scan::scan_chunks(chunks, schema, filter, |batch| {
            let chunk = batch.chunk();
            let rows = chunk.len();
            let key_columns: Vec<&crate::chunk::ColumnChunk> =
                group_indices.iter().map(|&c| chunk.column(c)).collect();

            // Pass 1: key every row into its unit-level slot and tally
            // this chunk's distinct groups (the per-group selection masks,
            // in compressed slot form).  Group values cluster in practice,
            // so probe the previous row's key in place first — for text and
            // array keys that skips the per-row key allocation entirely.
            scratch.row_slots.clear();
            for group in scratch.chunk_groups.drain(..) {
                scratch.chunk_group_of_slot[group.0 as usize] = u32::MAX;
            }
            let mut previous: Option<(GroupKey, u32)> = None;
            for i in 0..rows {
                let slot = match &previous {
                    Some((key, slot)) if key.matches_columns(&key_columns, i) => *slot,
                    _ => {
                        let key = GroupKey::from_columns(&key_columns, i);
                        let slot = self.slot_of(aggregate, &key);
                        if scratch.chunk_group_of_slot.len() <= slot as usize {
                            let slots = slot as usize + 1;
                            scratch.chunk_group_of_slot.resize(slots, u32::MAX);
                        }
                        previous = Some((key, slot));
                        slot
                    }
                };
                scratch.row_slots.push(slot);
                let marker = &mut scratch.chunk_group_of_slot[slot as usize];
                if *marker == u32::MAX {
                    *marker = scratch.chunk_groups.len() as u32;
                    scratch.chunk_groups.push((slot, 0));
                }
                scratch.chunk_groups[*marker as usize].1 += 1;
            }
            let states = &mut self.states;
            // Keep one (possibly empty) bucket per run of slots, so every slot
            // has a bucket to stage into or flush from.
            let wanted = states.len().div_ceil(RADIX_SLOTS_PER_BUCKET);
            if scratch.buckets.len() < wanted {
                scratch
                    .buckets
                    .resize_with(wanted, || StagedBucket::new(schema));
            }

            if let [(slot, _)] = scratch.chunk_groups[..] {
                // Single-key chunk: the whole chunk is one group's batch.  Any
                // staged rows of this group's bucket must run first to keep the
                // group's row order.
                let bucket = slot as usize / RADIX_SLOTS_PER_BUCKET;
                scratch.flush_bucket(aggregate, schema, states, bucket)?;
                return aggregate.transition_chunk(&mut states[slot as usize], chunk, schema);
            }

            if rows >= scratch.chunk_groups.len() * MIN_ROWS_PER_GROUP_FOR_GATHER {
                // Batches are big enough for the vectorized kernels: bucket
                // the row indices by group (counting-sort scatter, one flat
                // reused buffer) and gather each group's rows — in row
                // order — into a compacted sub-chunk.  Buckets holding staged
                // rows of this chunk's groups flush first (order again).
                if scratch.staged_total > 0 {
                    for g in 0..scratch.chunk_groups.len() {
                        let slot = scratch.chunk_groups[g].0 as usize;
                        let bucket = slot / RADIX_SLOTS_PER_BUCKET;
                        scratch.flush_bucket(aggregate, schema, states, bucket)?;
                    }
                }
                scratch.offsets.clear();
                let mut running = 0u32;
                for &(_, count) in &scratch.chunk_groups {
                    scratch.offsets.push(running);
                    running += count;
                }
                scratch.scatter.resize(rows, 0);
                let mut cursors = scratch.offsets.clone();
                for (i, &slot) in scratch.row_slots.iter().enumerate() {
                    let g = scratch.chunk_group_of_slot[slot as usize] as usize;
                    scratch.scatter[cursors[g] as usize] = i as u32;
                    cursors[g] += 1;
                }
                for (g, &(slot, count)) in scratch.chunk_groups.iter().enumerate() {
                    let start = scratch.offsets[g] as usize;
                    let indices = &scratch.scatter[start..start + count as usize];
                    let sub = chunk.gather_rows(indices);
                    aggregate.transition_chunk(&mut states[slot as usize], &sub, schema)?;
                }
            } else {
                // High-cardinality chunk — the radix partition pass.  Counting-
                // sort the row indices into slot-range buckets and append each
                // bucket's rows (columnar copies, no Row materialization) to its
                // staging chunk; groups batch up across chunks and flush through
                // transition_chunk once their bucket is full.  Per-group row
                // order is preserved: a group's rows route through exactly one
                // bucket, in scan order.
                scratch.stage_chunk_rows(chunk)?;
                // Flush buckets that reached a batch worth of rows — only the
                // buckets staged into by *this* chunk (still listed in
                // `chunk_buckets`) can have newly crossed the threshold, so the
                // check is O(buckets touched), not O(all buckets).
                for entry in 0..scratch.chunk_buckets.len() {
                    let bucket = scratch.chunk_buckets[entry].0 as usize;
                    if scratch.buckets[bucket].len() >= RADIX_FLUSH_ROWS {
                        scratch.flush_bucket(aggregate, schema, states, bucket)?;
                    }
                }
                // Bound total staging memory by draining the fullest buckets
                // (global scan, but only reached when the cap is exceeded).
                while scratch.staged_total > RADIX_MAX_STAGED_ROWS {
                    // Staged rows live in buckets, so a fullest one exists.
                    let Some(fullest) =
                        (0..scratch.buckets.len()).max_by_key(|&b| scratch.buckets[b].len())
                    else {
                        break;
                    };
                    scratch.flush_bucket(aggregate, schema, states, fullest)?;
                }
            }
            Ok(())
        })?;

        // End of call: drain every bucket, so the states are complete and
        // the scratch is reusable by any unit.  Cross-group order is free
        // (each group's state is independent); per-group order was preserved
        // by the staging discipline.
        if scratch.staged_total > 0 {
            for bucket in 0..scratch.buckets.len() {
                scratch.flush_bucket(aggregate, schema, &mut self.states, bucket)?;
            }
        }
        debug_assert_eq!(scratch.staged_total, 0);
        Ok(stats)
    }
}

/// Per-call scratch of [`GroupedUnit::advance`], reusable across chunks,
/// calls and units because every successful call leaves it drained: a batch
/// scan makes one per unit, a materialized view keeps one for all its
/// absorbs.
#[derive(Default)]
pub(crate) struct GroupScratch {
    /// Radix staging for high-cardinality chunks: one bucket per contiguous
    /// run of [`RADIX_SLOTS_PER_BUCKET`] slots, holding rows copied out of
    /// their source chunks until the bucket is worth batching.
    buckets: Vec<StagedBucket>,
    staged_total: usize,
    /// The slot of every row of the current chunk.
    row_slots: Vec<u32>,
    /// The distinct slots of the current chunk (first-seen order) with their
    /// in-chunk row counts.
    chunk_groups: Vec<(u32, u32)>,
    /// An epoch-stamped marker per slot (`u32::MAX` = not yet seen this
    /// chunk) locating each slot's entry in `chunk_groups`.
    chunk_group_of_slot: Vec<u32>,
    scatter: Vec<u32>,
    offsets: Vec<u32>,
    /// The staging pass keeps the same shape of directory at bucket
    /// granularity: the distinct buckets of the current staged chunk in
    /// first-seen order with their row counts, plus an epoch-stamped entry
    /// marker per bucket id — so keying a row to its chunk-bucket entry is
    /// O(1) no matter how many distinct buckets the chunk touches or in what
    /// order keys arrive.
    chunk_buckets: Vec<(u32, u32)>,
    chunk_entry_of_bucket: Vec<u32>,
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

impl GroupScratch {
    /// Flushes one radix bucket: counting-sorts the staged row indices by
    /// group slot (stable, so each group's rows keep their scan order),
    /// gathers every group's batch through [`RowChunk::gather_rows`] and
    /// feeds it to [`Aggregate::transition_chunk`].  Clears the bucket in
    /// place afterwards, keeping its grown buffers for the next staging
    /// round.
    fn flush_bucket<A: Aggregate>(
        &mut self,
        aggregate: &A,
        schema: &Schema,
        states: &mut [A::State],
        bucket_id: usize,
    ) -> Result<()> {
        let bucket = &mut self.buckets[bucket_id];
        let staged = bucket.len();
        if staged == 0 {
            return Ok(());
        }
        self.staged_total -= staged;
        let chunk = &bucket.rows;
        let slots = &bucket.slots;

        let base = (bucket_id * RADIX_SLOTS_PER_BUCKET) as u32;
        // Local counting sort over the bucket's (at most
        // RADIX_SLOTS_PER_BUCKET) slots.
        let mut counts = [0u32; RADIX_SLOTS_PER_BUCKET];
        for &slot in slots {
            counts[(slot - base) as usize] += 1;
        }
        if counts.iter().any(|&c| c as usize == staged) {
            // Single-group bucket: the whole staged chunk is one batch.
            let slot = slots[0] as usize;
            aggregate.transition_chunk(&mut states[slot], chunk, schema)?;
        } else {
            let mut offsets = [0u32; RADIX_SLOTS_PER_BUCKET];
            let mut running = 0u32;
            for (offset, &count) in offsets.iter_mut().zip(&counts) {
                *offset = running;
                running += count;
            }
            let mut scatter = vec![0u32; staged];
            let mut cursors = offsets;
            for (i, &slot) in slots.iter().enumerate() {
                let local = (slot - base) as usize;
                scatter[cursors[local] as usize] = i as u32;
                cursors[local] += 1;
            }
            for (local, &count) in counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let start = offsets[local] as usize;
                let sub = chunk.gather_rows(&scatter[start..start + count as usize]);
                aggregate.transition_chunk(&mut states[base as usize + local], &sub, schema)?;
            }
        }
        bucket.rows.clear();
        bucket.slots.clear();
        Ok(())
    }

    /// Stages one high-cardinality chunk's rows (keyed by `row_slots`) into
    /// their slot-range buckets: counting-sorts the row indices by bucket
    /// (stable, preserving row order) and appends each bucket's run to its
    /// staging chunk in one [`RowChunk::append_rows`] call.
    fn stage_chunk_rows(&mut self, chunk: &RowChunk) -> Result<()> {
        // Reset the directory: un-mark the previous staged chunk's buckets and
        // cover any buckets created since.
        for entry in self.chunk_buckets.drain(..) {
            self.chunk_entry_of_bucket[entry.0 as usize] = u32::MAX;
        }
        self.chunk_entry_of_bucket
            .resize(self.buckets.len(), u32::MAX);
        // Distinct buckets of this chunk in first-seen order, with counts.
        for &slot in &self.row_slots {
            let b = slot / RADIX_SLOTS_PER_BUCKET as u32;
            let marker = &mut self.chunk_entry_of_bucket[b as usize];
            if *marker == u32::MAX {
                *marker = self.chunk_buckets.len() as u32;
                self.chunk_buckets.push((b, 0));
            }
            self.chunk_buckets[*marker as usize].1 += 1;
        }
        // Counting-sort scatter with one cursor array: after the scatter pass
        // each cursor sits at the *end* of its bucket's range, and the start is
        // recovered as `end - count` — no second offsets buffer needed.
        self.offsets.clear();
        let mut running = 0u32;
        for &(_, count) in &self.chunk_buckets {
            self.offsets.push(running);
            running += count;
        }
        self.scatter.resize(chunk.len(), 0);
        for (i, &slot) in self.row_slots.iter().enumerate() {
            let b = slot / RADIX_SLOTS_PER_BUCKET as u32;
            let entry = self.chunk_entry_of_bucket[b as usize] as usize;
            self.scatter[self.offsets[entry] as usize] = i as u32;
            self.offsets[entry] += 1;
        }
        for (entry, &(b, count)) in self.chunk_buckets.iter().enumerate() {
            let end = self.offsets[entry] as usize;
            let indices = &self.scatter[end - count as usize..end];
            let bucket = &mut self.buckets[b as usize];
            bucket.rows.append_rows(chunk, indices)?;
            let row_slots = &self.row_slots;
            bucket
                .slots
                .extend(indices.iter().map(|&i| row_slots[i as usize]));
            self.staged_total += count as usize;
        }
        Ok(())
    }
}
