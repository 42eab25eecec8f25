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
//! A [`MaterializedAggregate`] holds, per table segment, the partial state
//! of an aggregate over every row of one table, together with a **chunk
//! watermark**: how many chunks (and how many rows of the open tail chunk)
//! have already been absorbed.  [`MaterializedAggregate::absorb`] advances
//! the watermark by running [`Aggregate::transition_chunk`] on the rows past
//! it — O(appended rows), not O(table) — and
//! [`MaterializedAggregate::finalize`] re-runs merge + finalize over the
//! retained states.  [`MaterializedAggregate::last_absorb`] reports what the
//! latest absorb did: rebuilt or caught up, and over how many rows.
//!
//! That is the one shape incremental training registers (`Session::
//! train_incremental` in `madlib_core::train`): no filter, no grouping.  A
//! filtered or grouped model is a batch [`crate::Dataset`] terminal.
//!
//! # Bit-identity with the batch path
//!
//! A view *is* a batch scan's per-segment partial states, kept: both are
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
//! 2. The view keeps what the batch scan keeps — one state per segment —
//!    and shares its runners.  A rebuild (first absorb, new table
//!    incarnation, shrunk segment, failed absorb) is the batch scan's
//!    fan-out with the states kept; an absorb resumes the same runners on
//!    each segment's rows past the watermark, serially on the calling
//!    thread.
//! 3. Finalize shares the batch scan's fold over clones of the retained
//!    states: they merge left-to-right in segment order.
//!
//! # Mutation model
//!
//! Views track **appends**.  A shrinking source segment (truncate,
//! [`crate::Database::replace_table`] with fewer rows) is detected through
//! the watermark and triggers a from-scratch rebuild; an in-place rewrite
//! that keeps row counts identical is *not* detectable — register a fresh
//! view after such mutations ([`crate::Database::register_view`] replaces
//! the view of the same name).
//!
//! # Adoption
//!
//! A view's retained states are what a restart would otherwise rescan the
//! table to rebuild, so a durable database persists them:
//! [`crate::Database::checkpoint`] writes each view's [`ViewImage`] — per
//! segment the watermark and the state encoded through
//! [`Aggregate::encode_state`] — and recovery offers it back to the first
//! view registered under the same name ([`AnyMaterialized::adopt`]).  The
//! view takes the states, the watermarks and the source generation only
//! when the source table, [`Aggregate::state_fingerprint`] and table
//! incarnation all match and every state decodes;
//! its next absorb is then the ordinary catch-up over the rows the log
//! replayed past the watermark.  Otherwise the view stays empty and that
//! absorb rebuilds it, as it always has.  Adoption seeds nothing else: the
//! absorb, the catch-up and the fold are the ones a live append runs.  A view
//! whose aggregate has no state codec (the default) is not persisted and
//! rebuilds after a restart.

use crate::aggregate::Aggregate;
use crate::chunk::{RowChunk, Segment};
use crate::error::Result;
use crate::executor::Executor;
use crate::fold;
use crate::persist::{StateReader, StateWriter};
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
    /// Propagates transition errors.
    fn absorb(&mut self, table: &Table) -> Result<()>;

    /// Flags the view so its next absorb rebuilds from scratch instead of
    /// trusting the retained states.  [`crate::Database`] sets this after a
    /// failed absorb, whose partial transitions may have left states
    /// inconsistent with the watermark.
    fn mark_needs_rebuild(&mut self);

    /// The retained states as bytes, for a checkpoint to persist — `None`
    /// for a view that is not persistable: its aggregate has no state codec
    /// ([`Aggregate::state_fingerprint`] is `None`), or it holds no
    /// trustworthy states (never absorbed, or a failed absorb).
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
    /// source table, or another aggregate configuration
    /// ([`Aggregate::state_fingerprint`]).
    Fingerprint,
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
    /// The source incarnation ([`Table::generation`]) the watermarks
    /// describe: the view's own when captured, the recovered table's when
    /// loaded.
    pub(crate) generation: u64,
    /// Per source segment, the watermark and the encoded state.
    pub(crate) segments: Vec<(Watermark, Vec<u8>)>,
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

    /// Hands every piece of `segment` past the watermark to `visit`, in
    /// order: the unabsorbed rows of the open tail chunk (copied as the one
    /// run they are), then the whole chunks behind it as one run.
    fn for_each_piece(
        &self,
        segment: &Segment,
        mut visit: impl FnMut(&[Arc<RowChunk>]) -> Result<()>,
    ) -> Result<()> {
        let chunks = segment.chunks();
        let mut next = self.absorbed_chunks;
        if self.tail_rows > 0 {
            let chunk = &chunks[next];
            if chunk.len() > self.tail_rows {
                visit(&[Arc::new(chunk.slice(self.tail_rows..chunk.len()))])?;
            }
            next += 1;
        }
        if next < chunks.len() {
            visit(&chunks[next..])?;
        }
        Ok(())
    }
}

/// What a view's last absorb did: how it brought the retained states up to
/// the table, and how many rows it folded in to do so — the counts the scan
/// runners return, no clock read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Absorbed {
    /// The states were rebuilt from the whole table (first absorb, new table
    /// incarnation, repartitioned or shrunk source, failed previous absorb):
    /// `rows` is every row of the table.
    Rebuilt {
        /// Rows scanned by the rebuild.
        rows: u64,
    },
    /// The states were advanced over the rows past their watermarks.
    CaughtUp {
        /// Rows past the watermarks, folded in.
        rows: u64,
    },
}

/// Incrementally maintained partial aggregate state over every row of one
/// table — see the module docs for the maintenance and bit-identity story.
pub struct MaterializedAggregate<A: Aggregate> {
    aggregate: A,
    /// The executor the rebuilds run under.
    executor: Executor,
    /// One state per source segment — the batch scan's currency, kept.
    states: Vec<A::State>,
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
    /// What the last absorb did; `None` before the first and after a failed
    /// one.
    last_absorb: Option<Absorbed>,
}

impl<A: Aggregate> std::fmt::Debug for MaterializedAggregate<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializedAggregate")
            .field("executor", &self.executor)
            .field("last_absorb", &self.last_absorb)
            .finish_non_exhaustive()
    }
}

impl<A> MaterializedAggregate<A>
where
    A: Aggregate,
    A::State: Clone,
{
    /// Creates an empty view whose rebuilds run under `executor`.
    pub fn new(aggregate: A, executor: &Executor) -> Self {
        Self {
            aggregate,
            executor: *executor,
            states: Vec::new(),
            watermarks: Vec::new(),
            source_generation: None,
            needs_rebuild: false,
            last_absorb: None,
        }
    }

    /// What the last absorb did — rebuilt or caught up, and over how many
    /// rows.  `None` before the first absorb and after a failed one (whose
    /// successor rebuilds).
    pub fn last_absorb(&self) -> Option<Absorbed> {
        self.last_absorb
    }

    /// Absorbs every row of `table` past the per-segment watermarks —
    /// O(new rows), on the calling thread.  Safe to call repeatedly and
    /// after arbitrary appends.  The first absorb, a new table incarnation,
    /// a repartitioned or shrunk source and a previously failed absorb
    /// rebuild instead: the batch scan's fan-out under the view's executor,
    /// with the states kept.  [`MaterializedAggregate::last_absorb`] reports
    /// which it was.
    ///
    /// # Errors
    /// Propagates transition errors.
    pub fn absorb(&mut self, table: &Table) -> Result<()> {
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
        let result = if rescan {
            fold::scan_units(&self.aggregate, table, &self.executor, None).map(|(states, stats)| {
                self.states = states;
                Absorbed::Rebuilt {
                    rows: stats.rows_scanned,
                }
            })
        } else {
            catch_up(&self.aggregate, &mut self.states, &self.watermarks, table)
                .map(|rows| Absorbed::CaughtUp { rows })
        };
        // A failed transition may have folded some rows in without advancing
        // the watermark; only a rebuild is safe now.
        self.needs_rebuild = result.is_err();
        self.last_absorb = result.as_ref().ok().copied();
        self.watermarks.clear();
        if result.is_ok() {
            let segments = (0..table.num_segments()).map(|seg| table.segment(seg));
            self.watermarks.extend(segments.map(Watermark::end_of));
        }
        result.map(drop)
    }

    /// Merges the retained states and finalizes — the cheap, O(states)
    /// refresh step.
    ///
    /// # Errors
    /// Propagates finalize errors.
    pub fn finalize(&self) -> Result<A::Output> {
        let states = self.states.iter().cloned();
        self.aggregate
            .finalize(fold::fold_units(&self.aggregate, states))
    }
}

/// Advances each segment's retained state over the pieces of `table` past
/// its watermark with the ungrouped runner, serially on the calling thread —
/// O(appended rows) — so the states stay the ones a batch scan of the grown
/// table would produce.  Returns the rows folded in.
fn catch_up<A: Aggregate>(
    aggregate: &A,
    states: &mut [A::State],
    watermarks: &[Watermark],
    table: &Table,
) -> Result<u64> {
    let schema = table.schema();
    let mut rows = 0;
    for (seg, (state, watermark)) in states.iter_mut().zip(watermarks).enumerate() {
        watermark.for_each_piece(table.segment(seg), |chunks| {
            let stats = fold::advance_state(aggregate, state, chunks, schema, None, None)?;
            rows += stats.rows_scanned;
            Ok(())
        })?;
    }
    Ok(rows)
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
        let generation = self.source_generation?;
        if self.needs_rebuild || self.watermarks.len() != self.states.len() {
            return None;
        }
        let encode = |state: &A::State| {
            let mut out = StateWriter::new();
            self.aggregate.encode_state(state, &mut out);
            out.into_bytes()
        };
        let segments = (self.watermarks.iter().zip(&self.states))
            .map(|(watermark, state)| (*watermark, encode(state)))
            .collect();
        Some(ViewImage {
            fingerprint,
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
        if fingerprint.as_deref() != Some(&image.fingerprint[..]) {
            return Err(RebuildReason::Fingerprint);
        }
        if !image.fits(table) {
            return Err(RebuildReason::Generation);
        }
        let decode = |(_, bytes): &(Watermark, Vec<u8>)| {
            let mut input = StateReader::new(bytes);
            let state = self.aggregate.decode_state(&mut input)?;
            input.finish().map(|()| state)
        };
        let states = (image.segments.iter().map(decode))
            .collect::<Result<Vec<_>>>()
            .map_err(|_| RebuildReason::DamagedFrame)?;
        let suffix_rows = (image.segments.iter().enumerate())
            .map(|(seg, (watermark, _))| {
                let segment = table.segment(seg);
                (segment.len() - watermark.rows(segment)) as u64
            })
            .sum();
        self.states = states;
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
    use crate::aggregate::{CountAggregate, SumAggregate};
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

    /// Incremental absorb across partial tail chunks and chunk seals matches
    /// the batch scan exactly, and each absorb reports the rows it caught up.
    #[test]
    fn absorb_matches_batch_aggregate() {
        let executor = Executor::new();
        let mut t = table(0, 2, 4);
        let mut view = MaterializedAggregate::new(SumAggregate::new("v"), &executor);
        assert_eq!(view.last_absorb(), None);
        view.absorb(&t).unwrap();
        assert_eq!(view.last_absorb(), Some(Absorbed::Rebuilt { rows: 0 }));
        assert_eq!(view.finalize().unwrap(), 0.0);

        // Absorb in uneven installments: 1, 3, 9, 14 rows...
        for (start, end) in [(0, 1), (1, 4), (4, 13), (13, 27)] {
            for i in start..end {
                t.insert(row![(i % 3) as i64, i as f64]).unwrap();
            }
            view.absorb(&t).unwrap();
            let rows = (end - start) as u64;
            assert_eq!(view.last_absorb(), Some(Absorbed::CaughtUp { rows }));
            let batch = crate::Dataset::from_table(&t)
                .with_executor(executor)
                .aggregate(&SumAggregate::new("v"))
                .unwrap();
            assert_eq!(view.finalize().unwrap(), batch);
        }
        // Nothing appended: nothing caught up.
        view.absorb(&t).unwrap();
        assert_eq!(view.last_absorb(), Some(Absorbed::CaughtUp { rows: 0 }));
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
        assert_eq!(view.last_absorb(), Some(Absorbed::Rebuilt { rows: 7 }));
        assert_eq!(view.finalize().unwrap(), 7);
    }
}
