//! Materialized aggregate state: incremental view maintenance for algebraic
//! aggregates.
//!
//! The paper's macro-programming pattern requires every aggregate to be
//! *algebraic* — `transition` folds rows into a state, `merge` combines
//! partial states, `final` extracts the output.  That same property makes
//! models maintainable under appends without rescanning history: keep the
//! partial transition states around, fold only the **new** rows in, and
//! re-run the (cheap) merge + finalize.  This module is that machinery.
//!
//! A [`MaterializedAggregate`] holds, per table segment, the partial states
//! of an aggregate together with a **chunk watermark**: how many chunks (and
//! how many rows of the open tail chunk) have already been absorbed.
//! [`MaterializedAggregate::absorb`] advances the watermark by running
//! [`Aggregate::transition_chunk`] on the rows past it — O(appended rows),
//! not O(table) — and [`MaterializedAggregate::finalize`] re-runs merge +
//! finalize over the retained states.
//!
//! # Bit-identity with the batch path
//!
//! A view *is* a batch scan's per-unit partial states, kept: both are
//! produced and consumed by the same code (the crate-private `fold` module),
//! so a refreshed result equals a from-scratch [`crate::Dataset`] aggregate
//! under the same [`Executor`] **bit-for-bit** by construction:
//!
//! 1. `transition_chunk` is bit-identical to sequential per-row
//!    `transition` (the engine-wide override contract).  Splitting a chunk
//!    at any row boundary and transitioning the pieces sequentially is
//!    therefore bit-identical to one whole-chunk call — so absorbing a
//!    then-open tail chunk in several installments matches the batch scan
//!    that sees it sealed.  This is the only invariant the view adds.
//! 2. The view shares the batch scan's unit decomposition
//!    ([`crate::scan::chunk_range_units`]: one state per segment at
//!    [`crate::StealGranularity::Segment`], the default; one per
//!    [`crate::scan::CHUNKS_PER_UNIT`]-chunk run at
//!    [`crate::StealGranularity::ChunkRange`]) and its unit runners.  A
//!    rebuild (first absorb, new table incarnation, shrunk segment, failed
//!    absorb) is the batch scan's fan-out with the states kept; an absorb
//!    resumes the same runners on the units past the watermark, serially on
//!    the calling thread.  Unit boundaries are aligned from chunk 0 and
//!    never move under append — only the last unit grows.
//! 3. Finalize shares the batch scan's fold over clones of the retained
//!    states: per segment, unit states merge left-to-right in range order;
//!    the per-segment states merge left-to-right in segment order; grouped
//!    states merge flat per key in (segment, unit) order and finalize in key
//!    order.
//!
//! # Mutation model
//!
//! Views track **appends**.  A shrinking source segment (truncate,
//! [`crate::Database::replace_table`] with fewer rows) is detected through
//! the watermark and triggers a from-scratch rebuild; an in-place rewrite
//! that keeps row counts identical is *not* detectable — drop and recreate
//! the view around such mutations.
//!
//! # Adoption
//!
//! A view's retained states are what a restart would otherwise rescan the
//! table to rebuild, so a durable database persists them:
//! [`crate::Database::checkpoint`] writes each view's [`ViewImage`] — per
//! segment the watermark and the unit states encoded through
//! [`Aggregate::encode_state`] — and recovery offers it back to the first
//! view registered under the same name ([`AnyMaterialized::adopt`]).  The
//! view takes the states, the watermarks and the source generation only
//! when the source table, [`Aggregate::state_fingerprint`], steal
//! granularity and table incarnation all match and every state decodes;
//! its next absorb is then the ordinary catch-up over the rows the log
//! replayed past the watermark.  Otherwise the view stays empty and that
//! absorb rebuilds it, as it always has.  Adoption seeds nothing else: the
//! absorb, the catch-up and the fold are the ones a live append runs.  An
//! aggregate without a state codec (the default), and every filtered or
//! grouped view, is not persisted and rebuilds after a restart.

use crate::aggregate::Aggregate;
use crate::chunk::{RowChunk, Segment};
use crate::error::{EngineError, Result};
use crate::executor::Executor;
use crate::expr::Predicate;
use crate::fold::{self, GroupScratch, GroupedUnit};
use crate::group::{self, GroupKey};
use crate::persist::{StateReader, StateWriter};
use crate::scan::{self, SegmentScanStats, StealGranularity};
use crate::table::Table;
use std::any::Any;
use std::sync::Arc;

/// Type-erased handle to a [`MaterializedAggregate`], so the
/// [`crate::Database`] view registry can hold views of heterogeneous
/// aggregate types.  Downcast through [`AnyMaterialized::as_any_mut`] to
/// finalize.
pub trait AnyMaterialized: Send {
    /// Absorbs all rows of `table` past the watermark.
    ///
    /// # Errors
    /// Propagates transition and predicate errors.
    fn absorb(&mut self, table: &Table) -> Result<()>;

    /// Flags the view so its next absorb rebuilds from scratch instead of
    /// trusting the retained states.  [`crate::Database`] sets this after a
    /// failed absorb, whose partial transitions may have left states
    /// inconsistent with the watermark.
    fn mark_needs_rebuild(&mut self);

    /// The retained states as bytes, for a checkpoint to persist — `None`
    /// for a view that is not persistable: its aggregate has no state codec
    /// ([`Aggregate::state_fingerprint`] is `None`), it is filtered or
    /// grouped, or it holds no trustworthy states (never absorbed, or a
    /// failed absorb).
    fn image(&self) -> Option<ViewImage>;

    /// Seeds the view with a persisted `image` of the view of the same name
    /// over `table` — states, watermarks and source generation, nothing
    /// else — and returns how many rows of `table` lie past the adopted
    /// watermarks, for the next absorb to catch up.  The view is left
    /// untouched, and rebuilds on its next absorb, when the image is not
    /// its own: the reason is returned.
    ///
    /// # Errors
    /// The [`RebuildReason`] the image was refused for.
    fn adopt(&mut self, image: ViewImage, table: &Table)
        -> std::result::Result<u64, RebuildReason>;

    /// The concrete [`MaterializedAggregate`], for downcasting.
    fn as_any(&self) -> &dyn Any;

    /// The concrete [`MaterializedAggregate`], mutable, for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Why a persisted view was not adopted, and its view was (or will be)
/// rebuilt from the table instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// The view registered under the name is not the one persisted: another
    /// source table, another aggregate configuration
    /// ([`Aggregate::state_fingerprint`]), or a filter or grouping.
    Fingerprint,
    /// The view's steal granularity differs from the persisted one.
    Granularity,
    /// The source table is another incarnation than the one the states
    /// describe: it was truncated, replaced or dropped after the checkpoint.
    Generation,
    /// The view's frame failed its checksum or a state failed to decode.
    DamagedFrame,
    /// No view of that name has been registered since recovery.
    NeverAskedFor,
}

/// What became of one persisted view after recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewOutcome {
    /// The view took the persisted states and absorbs only the rows past
    /// their watermarks: `suffix_rows` of them when it was adopted.
    Adopted {
        /// Rows of the source table past the adopted watermarks.
        suffix_rows: u64,
    },
    /// The view rebuilds (or will rebuild) from the table.
    Rebuilt {
        /// Why the persisted states were not used.
        reason: RebuildReason,
    },
}

/// A view's retained states as bytes, and what they are valid for: what a
/// checkpoint persists of a view and what recovery offers the view of the
/// same name to adopt ([`AnyMaterialized::adopt`]).
#[derive(Debug, Clone)]
pub struct ViewImage {
    /// [`Aggregate::state_fingerprint`] of the aggregate that wrote them.
    pub(crate) fingerprint: Vec<u8>,
    /// The steal granularity the unit states were cut at.
    pub(crate) granularity: StealGranularity,
    /// The source incarnation ([`Table::generation`]) the watermarks
    /// describe: the view's own when captured, the recovered table's when
    /// loaded.
    pub(crate) generation: u64,
    /// Per source segment, the watermark and the encoded unit states in
    /// range order.
    pub(crate) segments: Vec<(Watermark, Vec<Vec<u8>>)>,
}

impl ViewImage {
    /// Whether the image describes a prefix of `table`: the incarnation the
    /// watermarks were taken of, and no watermark past the rows it holds.
    pub(crate) fn fits(&self, table: &Table) -> bool {
        self.generation == table.generation()
            && self.segments.len() == table.num_segments()
            && (self.segments.iter().enumerate())
                .all(|(seg, (watermark, _))| !watermark.outruns(table.segment(seg)))
    }
}

/// How much of one segment the retained states have folded in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watermark {
    /// Chunks `0..absorbed_chunks` are fully absorbed.
    pub(crate) absorbed_chunks: usize,
    /// Rows of chunk `absorbed_chunks` already absorbed (the open-tail
    /// partial watermark; `0` when that chunk is untouched).
    pub(crate) tail_rows: usize,
}

impl Watermark {
    /// Rows of `segment` behind the watermark, which must not outrun it.
    fn rows(&self, segment: &Segment) -> usize {
        let whole = &segment.chunks()[..self.absorbed_chunks];
        whole.iter().map(|chunk| chunk.len()).sum::<usize>() + self.tail_rows
    }

    /// The watermark of states that cover all of `segment`.  The last chunk
    /// counts as the open tail even at capacity — it is only provably sealed
    /// once a successor chunk exists.
    fn end_of(segment: &Segment) -> Self {
        let chunks = segment.chunks();
        Self {
            absorbed_chunks: chunks.len().saturating_sub(1),
            tail_rows: chunks.last().map_or(0, |chunk| chunk.len()),
        }
    }

    /// Whether `segment` no longer holds the rows behind the watermark (a
    /// truncate, or a replacement with fewer rows).
    fn outruns(&self, segment: &Segment) -> bool {
        let chunks = segment.chunks();
        self.absorbed_chunks > chunks.len()
            || (self.tail_rows > 0
                && chunks
                    .get(self.absorbed_chunks)
                    .is_none_or(|chunk| chunk.len() < self.tail_rows))
    }

    /// Hands every piece of `segment` past the watermark — the unabsorbed
    /// rows of the open tail chunk (copied as the one run they are), then whole chunks, one
    /// contiguous run per unit — to `visit`, with the index of the unit
    /// that owns it.  Unit boundaries are aligned from chunk 0 and never
    /// move under append; only the last unit grows.
    fn for_each_piece(
        &self,
        segment: &Segment,
        chunks_per_unit: usize,
        mut visit: impl FnMut(usize, &[Arc<RowChunk>]) -> Result<()>,
    ) -> Result<()> {
        let chunks = segment.chunks();
        let mut next = self.absorbed_chunks;
        if self.tail_rows > 0 {
            let chunk = &chunks[next];
            if chunk.len() > self.tail_rows {
                let rest = chunk.slice(self.tail_rows..chunk.len());
                visit(next / chunks_per_unit, &[Arc::new(rest)])?;
            }
            next += 1;
        }
        while next < chunks.len() {
            let unit = next / chunks_per_unit;
            let hi = (unit + 1).saturating_mul(chunks_per_unit).min(chunks.len());
            visit(unit, &chunks[next..hi])?;
            next = hi;
        }
        Ok(())
    }
}

/// The retained per-segment, per-unit states — the batch scan's currency,
/// kept: a single state per unit for ungrouped views, a slot directory of
/// per-key states for grouped views (plus the grouped runner's scratch,
/// reused across absorbs).
enum ViewStates<S> {
    Ungrouped(Vec<Vec<S>>),
    Grouped {
        segments: Vec<Vec<GroupedUnit<S>>>,
        scratch: Box<GroupScratch>,
    },
}

/// Incrementally maintained partial aggregate state over one table — see the
/// module docs for the maintenance and bit-identity story.
///
/// The view is configured like a [`crate::Dataset`] terminal: an optional
/// filter and optional grouping columns, plus the [`Executor`] whose scan
/// structure (steal granularity, parallelism of rebuilds) the retained
/// states share.
pub struct MaterializedAggregate<A: Aggregate> {
    aggregate: A,
    filter: Option<Predicate>,
    group_columns: Vec<String>,
    executor: Executor,
    states: ViewStates<A::State>,
    /// One per source segment; empty until the first absorb.
    watermarks: Vec<Watermark>,
    /// Lifecycle generation of the table incarnation the watermarks
    /// describe ([`Table::generation`]); a mismatch on absorb proves the
    /// source was dropped/recreated, replaced or truncated, and forces a
    /// rebuild even when the new incarnation has at least as many chunks.
    source_generation: Option<u64>,
    /// Set when a failed absorb may have left states inconsistent with the
    /// watermark; the next absorb rebuilds from scratch.
    needs_rebuild: bool,
}

impl<A: Aggregate> std::fmt::Debug for MaterializedAggregate<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedAggregate")
            .field("group_columns", &self.group_columns)
            .field("executor", &self.executor)
            .finish_non_exhaustive()
    }
}

impl<A> MaterializedAggregate<A>
where
    A: Aggregate,
    A::State: Clone,
{
    /// Creates an empty ungrouped, unfiltered view whose retained state
    /// structure is `executor`'s scan decomposition.
    pub fn new(aggregate: A, executor: &Executor) -> Self {
        Self {
            aggregate,
            filter: None,
            group_columns: Vec::new(),
            executor: *executor,
            states: ViewStates::Ungrouped(Vec::new()),
            watermarks: Vec::new(),
            source_generation: None,
            needs_rebuild: false,
        }
    }

    /// Restricts the view to rows matching `filter` (the dataset's `WHERE`).
    /// A filtered view is not persisted by a checkpoint: after a restart it
    /// rebuilds from the table.
    #[must_use]
    pub fn with_filter(mut self, filter: Predicate) -> Self {
        self.filter = Some(filter);
        self.watermarks.clear();
        self
    }

    /// Maintains one state per distinct key of `columns` (the dataset's
    /// `grouping_cols`).  The list is validated on absorb exactly as
    /// [`crate::Dataset::group_by`]'s is by its terminals: unknown names are
    /// [`EngineError::ColumnNotFound`], duplicates
    /// [`EngineError::InvalidArgument`].  A grouped view is not persisted by
    /// a checkpoint: after a restart it rebuilds from the table.
    #[must_use]
    pub fn with_group_columns<I, S>(mut self, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.group_columns = columns.into_iter().map(Into::into).collect();
        self.states = if self.group_columns.is_empty() {
            ViewStates::Ungrouped(Vec::new())
        } else {
            ViewStates::Grouped {
                segments: Vec::new(),
                scratch: Box::default(),
            }
        };
        self.watermarks.clear();
        self
    }

    /// The aggregate the view maintains.
    pub fn aggregate(&self) -> &A {
        &self.aggregate
    }

    /// Whether the view maintains per-group states.
    pub fn is_grouped(&self) -> bool {
        !self.group_columns.is_empty()
    }

    /// Whether the next absorb will rebuild from scratch (a failed absorb
    /// marked the retained states untrustworthy).
    pub fn needs_rebuild(&self) -> bool {
        self.needs_rebuild
    }

    /// Absorbs every row of `table` past the per-segment watermarks —
    /// O(new rows), on the calling thread.  Safe to call repeatedly and
    /// after arbitrary appends.  The first absorb, a new table incarnation,
    /// a repartitioned or shrunk source and a previously failed absorb
    /// rebuild instead: the batch scan's fan-out under the view's executor,
    /// with the states kept.
    ///
    /// # Errors
    /// Propagates transition, predicate and column-lookup errors.
    pub fn absorb(&mut self, table: &Table) -> Result<()> {
        let schema = table.schema();
        let group_indices = if self.is_grouped() {
            group::group_column_indices(schema, &self.group_columns)?
        } else {
            Vec::new()
        };
        let generation = table.generation();
        // The retained states are unusable after a previously failed absorb,
        // for a different table incarnation (drop/recreate, replace, truncate
        // — possibly with *more* chunks than the watermark, so shrink
        // detection alone would wrongly absorb its suffix), a different
        // partitioning (or on the first absorb) and for a shrunk segment.
        let rescan = self.needs_rebuild
            || self.source_generation != Some(generation)
            || self.watermarks.len() != table.num_segments()
            || (self.watermarks.iter().enumerate())
                .any(|(seg, watermark)| watermark.outruns(table.segment(seg)));
        self.source_generation = Some(generation);
        let (aggregate, executor, filter) = (&self.aggregate, &self.executor, self.filter.as_ref());
        let watermarks = &self.watermarks;
        let result = match &mut self.states {
            ViewStates::Ungrouped(segments) if rescan => {
                fold::scan_units(aggregate, table, executor, filter).map(|(s, _)| *segments = s)
            }
            ViewStates::Ungrouped(segments) => catch_up(
                segments,
                watermarks,
                table,
                executor,
                || aggregate.initial_state(),
                |state, chunks| fold::advance_state(aggregate, state, chunks, schema, filter),
            ),
            ViewStates::Grouped { segments, scratch } if rescan => {
                // A failed absorb can leave rows staged.
                **scratch = GroupScratch::default();
                fold::scan_grouped_units(aggregate, table, executor, &group_indices, filter)
                    .map(|s| *segments = s)
            }
            ViewStates::Grouped { segments, scratch } => catch_up(
                segments,
                watermarks,
                table,
                executor,
                GroupedUnit::default,
                |unit, chunks| {
                    unit.advance(aggregate, chunks, schema, &group_indices, filter, scratch)
                },
            ),
        };
        // A failed transition may have folded some rows in without advancing
        // the watermark; only a rebuild is safe now.
        self.needs_rebuild = result.is_err();
        self.watermarks.clear();
        if result.is_ok() {
            let segments = (0..table.num_segments()).map(|seg| table.segment(seg));
            self.watermarks.extend(segments.map(Watermark::end_of));
        }
        result
    }

    /// Merges the retained states and finalizes — the cheap, O(states)
    /// refresh step.  Requires an ungrouped view.
    ///
    /// # Errors
    /// Propagates merge/finalize errors; errors on a grouped view.
    pub fn finalize(&self) -> Result<A::Output> {
        match &self.states {
            ViewStates::Ungrouped(segments) => {
                let units = segments.iter().map(|units| units.iter().cloned());
                self.aggregate
                    .finalize(fold::fold_units(&self.aggregate, units))
            }
            ViewStates::Grouped { .. } => Err(EngineError::invalid(
                "finalize on a grouped materialized aggregate; use finalize_grouped",
            )),
        }
    }

    /// Merges the retained per-group states and finalizes each group,
    /// returning outputs sorted by key (matching
    /// [`crate::Dataset::aggregate_per_group`]).  Requires a grouped view.
    ///
    /// # Errors
    /// Propagates merge/finalize errors; errors on an ungrouped view.
    pub fn finalize_grouped(&self) -> Result<Vec<(GroupKey, A::Output)>>
    where
        A::Output: Send,
    {
        match &self.states {
            ViewStates::Grouped { segments, .. } => {
                let states = segments
                    .iter()
                    .flatten()
                    .flat_map(GroupedUnit::cloned_states);
                fold::fold_groups(&self.aggregate, states, self.executor.is_parallel())
            }
            ViewStates::Ungrouped(_) => Err(EngineError::invalid(
                "finalize_grouped on an ungrouped materialized aggregate; use finalize",
            )),
        }
    }
}

/// Advances retained `segments` over the pieces of `table` past their
/// `watermarks` with the unit runner `advance`, serially on the calling
/// thread — O(appended rows).  The units are the executor's aggregate-scan
/// decomposition ([`scan::chunk_range_units`]), so the states stay the ones
/// a batch scan of the grown table would produce.
fn catch_up<U>(
    segments: &mut [Vec<U>],
    watermarks: &[Watermark],
    table: &Table,
    executor: &Executor,
    new_unit: impl Fn() -> U,
    mut advance: impl FnMut(&mut U, &[Arc<RowChunk>]) -> Result<SegmentScanStats>,
) -> Result<()> {
    let chunks_per_unit = match executor.steal_granularity() {
        StealGranularity::Segment => usize::MAX,
        StealGranularity::ChunkRange => scan::CHUNKS_PER_UNIT,
    };
    for (seg, (units, watermark)) in segments.iter_mut().zip(watermarks).enumerate() {
        watermark.for_each_piece(table.segment(seg), chunks_per_unit, |unit, chunks| {
            while units.len() <= unit {
                units.push(new_unit());
            }
            advance(&mut units[unit], chunks).map(drop)
        })?;
    }
    Ok(())
}

impl<A> AnyMaterialized for MaterializedAggregate<A>
where
    A: Aggregate + Send + 'static,
    A::State: Clone + 'static,
{
    fn absorb(&mut self, table: &Table) -> Result<()> {
        MaterializedAggregate::absorb(self, table)
    }

    fn mark_needs_rebuild(&mut self) {
        self.needs_rebuild = true;
    }

    fn image(&self) -> Option<ViewImage> {
        let fingerprint = self.aggregate.state_fingerprint()?;
        let ViewStates::Ungrouped(segments) = &self.states else {
            return None;
        };
        let generation = self.source_generation?;
        if self.filter.is_some() || self.needs_rebuild || self.watermarks.len() != segments.len() {
            return None;
        }
        let encode = |state: &A::State| {
            let mut out = StateWriter::new();
            self.aggregate.encode_state(state, &mut out);
            out.into_bytes()
        };
        let segments = (self.watermarks.iter().zip(segments))
            .map(|(watermark, units)| (*watermark, units.iter().map(encode).collect()))
            .collect();
        Some(ViewImage {
            fingerprint,
            granularity: self.executor.steal_granularity(),
            generation,
            segments,
        })
    }

    fn adopt(
        &mut self,
        image: ViewImage,
        table: &Table,
    ) -> std::result::Result<u64, RebuildReason> {
        let fingerprint = self.aggregate.state_fingerprint();
        if self.filter.is_some()
            || self.is_grouped()
            || fingerprint.as_deref() != Some(&image.fingerprint[..])
        {
            return Err(RebuildReason::Fingerprint);
        }
        if image.granularity != self.executor.steal_granularity() {
            return Err(RebuildReason::Granularity);
        }
        if !image.fits(table) {
            return Err(RebuildReason::Generation);
        }
        let decode = |bytes: &Vec<u8>| {
            let mut input = StateReader::new(bytes);
            let state = self.aggregate.decode_state(&mut input)?;
            input.finish().map(|()| state)
        };
        let states = (image.segments.iter())
            .map(|(_, units)| units.iter().map(decode).collect::<Result<Vec<_>>>())
            .collect::<Result<Vec<_>>>()
            .map_err(|_| RebuildReason::DamagedFrame)?;
        let suffix_rows = (image.segments.iter().enumerate())
            .map(|(seg, (watermark, _))| {
                let segment = table.segment(seg);
                (segment.len() - watermark.rows(segment)) as u64
            })
            .sum();
        self.states = ViewStates::Ungrouped(states);
        self.watermarks = image.segments.into_iter().map(|(w, _)| w).collect();
        self.source_generation = Some(image.generation);
        self.needs_rebuild = false;
        Ok(suffix_rows)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AvgAggregate, CountAggregate, SumAggregate};
    use crate::expr::Predicate;
    use crate::row;
    use crate::schema::{Column, ColumnType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("g", ColumnType::Int),
            Column::new("v", ColumnType::Double),
        ])
    }

    fn table(rows: usize, segments: usize, chunk_capacity: usize) -> Table {
        let mut t = Table::new(schema(), segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for i in 0..rows {
            t.insert(row![(i % 3) as i64, i as f64]).unwrap();
        }
        t
    }

    /// Incremental absorb across partial tail chunks, chunk seals, filters
    /// and both steal granularities matches the batch scan exactly.
    #[test]
    fn absorb_matches_batch_aggregate() {
        for steal in [StealGranularity::Segment, StealGranularity::ChunkRange] {
            let executor = Executor::new().with_steal_granularity(steal);
            let filter = Predicate::column_gt("v", 2.5);
            let mut t = table(0, 2, 4);
            let mut view = MaterializedAggregate::new(SumAggregate::new("v"), &executor)
                .with_filter(filter.clone());
            view.absorb(&t).unwrap();
            assert_eq!(view.finalize().unwrap(), 0.0);

            // Absorb in uneven installments: 1, 3, 9, 14 rows...
            for (start, end) in [(0, 1), (1, 4), (4, 13), (13, 27)] {
                for i in start..end {
                    t.insert(row![(i % 3) as i64, i as f64]).unwrap();
                }
                view.absorb(&t).unwrap();
                let batch = crate::Dataset::from_table(&t)
                    .with_executor(executor)
                    .filter(filter.clone())
                    .aggregate(&SumAggregate::new("v"))
                    .unwrap();
                assert_eq!(view.finalize().unwrap(), batch);
            }
        }
    }

    /// Grouped views match `aggregate_per_group` (keys sorted, per-key merge
    /// order preserved).
    #[test]
    fn grouped_absorb_matches_batch() {
        let executor = Executor::new();
        let mut t = table(10, 2, 4);
        let mut view =
            MaterializedAggregate::new(AvgAggregate::new("v"), &executor).with_group_columns(["g"]);
        view.absorb(&t).unwrap();
        for i in 10..23 {
            t.insert(row![(i % 3) as i64, i as f64]).unwrap();
        }
        view.absorb(&t).unwrap();
        let batch = crate::Dataset::from_table(&t)
            .with_executor(executor)
            .group_by(["g"])
            .aggregate_per_group(&AvgAggregate::new("v"))
            .unwrap();
        assert_eq!(view.finalize_grouped().unwrap(), batch);
    }

    /// A grouped view validates its column list exactly like
    /// `Dataset::group_by`'s terminals: `(g, g)` used to be accepted and
    /// silently maintained under a wider-looking key.
    #[test]
    fn grouped_views_validate_the_column_list() {
        let t = table(10, 2, 4);
        let view = |columns: &[&str]| {
            MaterializedAggregate::new(CountAggregate, &Executor::new())
                .with_group_columns(columns.iter().copied())
        };
        assert!(matches!(
            view(&["g", "g"]).absorb(&t),
            Err(EngineError::InvalidArgument { message }) if message.contains("duplicate")
        ));
        assert!(matches!(
            view(&["g", "nope"]).absorb(&t),
            Err(EngineError::ColumnNotFound { name }) if name == "nope"
        ));
        let mut valid = view(&["g", "v"]);
        valid.absorb(&t).unwrap();
        assert_eq!(valid.finalize_grouped().unwrap().len(), 10);
    }

    /// A shrinking segment (truncate) rebuilds instead of double-counting.
    #[test]
    fn truncate_triggers_rebuild() {
        let executor = Executor::new();
        let mut t = table(20, 2, 4);
        let mut view = MaterializedAggregate::new(CountAggregate, &executor);
        view.absorb(&t).unwrap();
        assert_eq!(view.finalize().unwrap(), 20);
        t.truncate();
        for i in 0..7 {
            t.insert(row![0i64, i as f64]).unwrap();
        }
        view.absorb(&t).unwrap();
        assert_eq!(view.finalize().unwrap(), 7);
    }
}
