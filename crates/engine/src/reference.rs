//! The per-row meaning of an aggregate, run: the bit reference every
//! [`Aggregate::transition_chunk`] override is held to.
//!
//! The paper's UDA contract (§3) defines an aggregate by its `transition`
//! over one row, its `merge` and its `final`; a `transition_chunk` override
//! is an optimisation of the inner loop that must reproduce the per-row
//! fold exactly — same values, same floating-point accumulation order.  The
//! engine's terminals only ever scan chunks, so this module keeps the
//! definition they are compared against: serial, segment by segment in
//! order, each row materialised ([`crate::chunk::Segment::iter`]), filtered
//! by [`Predicate::evaluate`](crate::expr::Predicate::evaluate) and folded
//! with [`Aggregate::transition`]; a grouped row's key comes from its
//! values.  The per-segment states go through the engine's own merge, so
//! [`aggregate`] and [`aggregate_per_group`] return the bits
//! [`Dataset::aggregate`] and [`Dataset::aggregate_per_group`] return —
//! exactly when every `transition_chunk` override is equal to its per-row
//! fallback.
//!
//! No engine terminal calls this module.  The tests compare the chunked
//! scans against it, and a method author checks a new override the same way:
//! `assert_eq!(dataset.aggregate(&a)?, reference::aggregate(&dataset, &a)?)`
//! over tables with tiny chunk capacities, NULLs and filters.  (An aggregate
//! private to a method crate is checked one level down, state against state:
//! `transition_chunk` against [`crate::aggregate::transition_chunk_by_rows`]
//! on the same chunks.)

use crate::aggregate::Aggregate;
use crate::chunk::Segment;
use crate::dataset::Dataset;
use crate::error::Result;
use crate::fold;
use crate::group::GroupKey;
use crate::row::Row;
use crate::table::Table;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

/// The per-row reference of [`Dataset::aggregate`].
///
/// # Errors
/// The first transition or predicate error in (segment, row) order, a
/// finalize error, or an error on a grouped dataset.
pub fn aggregate<A: Aggregate>(dataset: &Dataset, aggregate: &A) -> Result<A::Output> {
    dataset.require_ungrouped("ungrouped aggregation")?;
    let mut segments = Vec::new();
    for segment in segments_of(dataset) {
        let mut state = aggregate.initial_state();
        for_each_row(dataset, segment, |row| {
            aggregate.transition(&mut state, row, dataset.schema())
        })?;
        segments.push(state);
    }
    aggregate.finalize(fold::fold_units(aggregate, segments))
}

/// The per-row reference of [`Dataset::aggregate_per_group`]: outputs sorted
/// by key, finalized on the calling thread.
///
/// # Errors
/// As [`aggregate`], and the grouping-column errors of the terminal.
pub fn aggregate_per_group<A: Aggregate>(
    dataset: &Dataset,
    aggregate: &A,
) -> Result<Vec<(GroupKey, A::Output)>>
where
    A::Output: Send,
{
    let group_indices = dataset.group_column_indices()?;
    let mut states = Vec::new();
    for segment in segments_of(dataset) {
        // One state per key per segment, so the order within a segment never
        // reaches the per-key merge.
        let mut groups: HashMap<GroupKey, A::State> = HashMap::new();
        for_each_row(dataset, segment, |row| {
            let key = GroupKey::from_values(group_indices.iter().map(|&i| row.get(i)));
            let state = groups
                .entry(key)
                .or_insert_with(|| aggregate.initial_state());
            aggregate.transition(state, row, dataset.schema())
        })?;
        states.extend(groups);
    }
    fold::fold_groups(aggregate, states, false)
}

/// Runs `aggregate` over a copy of `dataset` that holds only the columns the
/// aggregate declares it reads ([`Aggregate::input_columns`]; every column
/// when it declares none) — the check that a declaration is enough.
///
/// The dataset's filter and grouping are applied while copying, to the full
/// rows: each group (the whole dataset, under the zero-column key, when it
/// is ungrouped) becomes one table of the projected columns, with the
/// source's segments, chunk capacity and row order, which the group's rows
/// are then aggregated from, unfiltered and ungrouped, under the dataset's
/// executor.  Grouped aggregation is per-group filter-then-aggregate bit for
/// bit, so with a sufficient declaration the outputs equal
/// [`Dataset::aggregate_per_group`]'s — or, for an ungrouped dataset,
/// [`Dataset::aggregate`]'s — in key order; a column the declaration leaves
/// out is simply not in the copy.
///
/// # Errors
/// The errors of the copy and of the aggregation (a declared column the
/// dataset lacks leaves the copy full width, as it leaves the engine's
/// scans, and the aggregate reports it).
pub fn aggregate_on_input_columns<A: Aggregate>(
    dataset: &Dataset,
    aggregate: &A,
) -> Result<Vec<(GroupKey, A::Output)>> {
    let schema = dataset.schema();
    // What the engine resolves a declaration to: every column when the
    // aggregate declares none, all of them, or one the table lacks.
    let projection = fold::input_projection(aggregate, schema);
    let every: Vec<usize> = (0..schema.arity()).collect();
    let (columns, projected) = match &projection {
        Some(projection) => (projection.columns(), projection.schema()),
        None => (&every[..], schema),
    };
    let source = dataset.table();
    let new_copy = || {
        Table::new(projected.clone(), source.num_segments())?
            .with_chunk_capacity(source.chunk_capacity())
    };
    // Outputs in key order; an ungrouped dataset is one (maybe empty) copy.
    let mut copies: BTreeMap<GroupKey, Table> = BTreeMap::new();
    let group_indices = if dataset.is_grouped() {
        dataset.group_column_indices()?
    } else {
        copies.insert(GroupKey::composite(Vec::new()), new_copy()?);
        Vec::new()
    };
    for (s, segment) in segments_of(dataset).enumerate() {
        for_each_row(dataset, segment, |row| {
            let key = GroupKey::from_values(group_indices.iter().map(|&i| row.get(i)));
            let copy = match copies.entry(key) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => entry.insert(new_copy()?),
            };
            let values = columns.iter().map(|&c| row.get(c).clone()).collect();
            copy.insert_into_segment(s, Row::new(values))
        })?;
    }
    copies
        .into_iter()
        .map(|(key, copy)| {
            let copy = Dataset::from_table(&copy).with_executor(dataset.executor());
            Ok((key, copy.aggregate(aggregate)?))
        })
        .collect()
}

fn segments_of(dataset: &Dataset) -> impl Iterator<Item = &Segment> {
    let table = dataset.table();
    (0..table.num_segments()).map(move |s| table.segment(s))
}

/// Calls `visit` on each of `segment`'s rows that the dataset's filter
/// accepts, in order.
fn for_each_row(
    dataset: &Dataset,
    segment: &Segment,
    mut visit: impl FnMut(&Row) -> Result<()>,
) -> Result<()> {
    for row in segment.iter() {
        if let Some(predicate) = dataset.filter_predicate() {
            if !predicate.evaluate(&row, dataset.schema())? {
                continue;
            }
        }
        visit(&row)?;
    }
    Ok(())
}
