//! # madlib-engine
//!
//! A small in-memory, shared-nothing parallel database engine that plays the
//! role PostgreSQL/Greenplum plays for the original MADlib library.
//!
//! The MADlib paper is not about a new DBMS — it is about a *pattern* for
//! layering scalable analytics on top of one.  The pattern has three parts
//! (Section 3.1 of the paper), and each has a direct equivalent here:
//!
//! | Paper construct                         | This crate                      |
//! |-----------------------------------------|---------------------------------|
//! | Shared-nothing segments (Greenplum)     | [`Table`] partitions + the [`scan`] pipeline's per-segment fan-out |
//! | User-defined aggregate (transition / merge / final) | the [`aggregate::Aggregate`] trait |
//! | `source_table` + `WHERE` + `grouping_cols` (Sections 3–4) | [`dataset::Dataset`]: `db.dataset("t")?.filter(...).group_by([...])` — `grouping_cols` is an arbitrary column list |
//! | `GROUP BY` over an aggregate (Section 4.2) | `Session::train` / [`dataset::Dataset::aggregate_per_group`] with typed [`group::GroupKey`]s — composite for multi-column `group_by`, one [`group::KeyPart`] per column (`madlib_core::train` hosts the `Session`/`Estimator` half; *every* trainable method implements `Estimator`, from linregr through `LowRankFactorization`, `Lda`, `Apriori` and the text crate's `CrfEstimator`) |
//! | Driver UDF + temp tables for iteration  | [`iteration::IterationController`] + [`Database`] temp tables |
//! | Templated queries over arbitrary schemas| [`template`] schema introspection |
//! | In-database scoring (the macro-thesis applied to serving) | [`score::Scorer`] + [`dataset::Dataset::score`] / [`dataset::Dataset::score_per_group`] / [`dataset::Dataset::top_k_by_score`], models resolved from the [`catalog::ModelCatalog`] in [`Database::models`] |
//! | Streaming ingest + incremental model maintenance (algebraic transition/merge/final under appends) | [`Database::append_rows`] + [`materialize::MaterializedAggregate`] chunk-watermark views (registered via [`Database::register_view`], refreshed via [`Database::refresh_view`]; `madlib_core::train` surfaces them as `Session::train_incremental` / `Session::refresh`) |
//! | DBMS durability underneath the analytics (the paper assumes PostgreSQL/Greenplum WAL + checkpoints) | [`Database::open`] / [`Database::recover`] / [`Database::checkpoint`]: a group-commit write-ahead log of catalog-level mutations plus chunk-granular snapshots — each sealed immutable chunk is appended to its segment's snapshot file exactly once — with recovery replaying the committed WAL tail over the latest snapshot *through the same function that applied each mutation the first time* (a logged mutation is a record; one `apply` runs it for the live call and for replay), so recovered ≡ committed bit for bit by construction (commit point = the fsync of the group-commit batch carrying the record) |
//!
//! The old `Executor::aggregate_filtered` / `aggregate_grouped` /
//! `aggregate_grouped_filtered` method matrix has been **removed**:
//! filtered and grouped scans are expressed exclusively through
//! [`dataset::Dataset`].
//!
//! Data flows exactly as in the paper: large data lives in partitioned
//! tables, transition functions stream over each partition locally and in
//! parallel, per-segment states are merged, and only small model states ever
//! cross the "driver" boundary.
//!
//! ## Execution model: chunk-at-a-time (vectorized) scans
//!
//! The paper's Figure 4 shows linear regression getting ~100× faster across
//! three MADlib releases purely from restructuring the transition function's
//! inner loop.  This engine applies the same lesson to the scan itself:
//!
//! * **Storage** — each [`Table`] segment holds fixed-capacity column-major
//!   [`chunk::RowChunk`]s.  A scalar `double precision` column is one
//!   contiguous `f64` buffer per chunk; a `double precision[]` feature-vector
//!   column is one flattened buffer plus an offset table; every column
//!   carries a [`chunk::NullBitmap`].  Chunks sit behind `Arc`: sealed
//!   (full) chunks are immutable and shared by snapshot reads
//!   ([`Database::table`] / [`Database::dataset`] clone bookkeeping only,
//!   never buffers), while the open tail chunk is copy-on-write under
//!   append — see the snapshot-isolation notes on [`database`].
//! * **Aggregates** — [`Aggregate::transition_chunk`] receives a whole chunk.
//!   The default implementation materializes rows and calls the per-row
//!   [`Aggregate::transition`], so existing aggregates work unchanged; hot
//!   aggregates override it with kernels over the contiguous buffers.
//!   Overrides must be bit-for-bit equivalent to the fallback (same values,
//!   same floating-point accumulation order) — the cross-crate property
//!   tests hold every scan to [`reference`](mod@reference) (below).
//! * **Filters** — the executor evaluates predicates once per chunk via
//!   [`expr::Predicate::evaluate_chunk`], producing a
//!   [`chunk::SelectionMask`]; fully-selected chunks pass through untouched
//!   and partially-selected chunks are gathered into a compacted chunk, so
//!   the per-row branch disappears from transition inner loops.
//! * **Pipeline** — the [`scan`] module packages the scan loop itself
//!   (chunk iteration, filter → mask, compaction, panic-safe
//!   thread-per-segment fan-out) as reusable primitives.  *Every* scan
//!   consumer runs on it: ungrouped aggregation, grouped aggregation
//!   ([`dataset::Dataset::aggregate_per_group`], per-segment hash grouping
//!   on typed — possibly composite — [`group::GroupKey`]s: each chunk is
//!   partitioned by key and every group's rows are gathered, in row order,
//!   into a compacted sub-chunk for [`Aggregate::transition_chunk`]; chunks
//!   with more groups than direct gathers pay for run a radix partition
//!   pass instead, staging rows into group-slot buckets across chunks via
//!   [`chunk::RowChunk::append_rows`] and flushing each group as one batch
//!   — bit-identical either way), grouped scoring and per-group gathers
//!   ([`dataset::Dataset::score_per_group`], [`dataset::Dataset::gather_groups`])
//!   — all three route a chunk's rows to groups through the one keying pass
//!   and index sort of the [`group`] module, which
//!   [`group::partition_by_group`] runs too, spelling the slots out as
//!   per-group [`chunk::SelectionMask`]s for standalone consumers — and
//!   projections ([`dataset::Dataset::map_chunks`] /
//!   [`Executor::parallel_map_chunks`] with the row-level adapters layered
//!   on top).
//! * **Reference** — every terminal has one, chunked, scan body.  The
//!   per-row meaning of an aggregate lives on as
//!   [`reference`](mod@reference) (materialise each row, filter it,
//!   `transition` it, merge the per-segment states): no terminal calls
//!   it, and the tests compare the chunked scans against it.
//!
//! New methods opt in by overriding `transition_chunk` (typically via
//! [`chunk::RowChunk::doubles`] / [`chunk::RowChunk::double_arrays`] and the
//! batched kernels in `madlib-linalg`) and checking it against
//! [`reference`](mod@reference); everything else — merge, finalize, drivers,
//! grouping — is unchanged.  Consumers that are not aggregates (sketch
//! passes, projections) use [`dataset::Dataset::map_chunks`] / the
//! `parallel_map_chunks` projection, or [`scan::scan_segment_chunks`] over
//! one segment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod catalog;
pub mod chunk;
pub mod database;
pub mod dataset;
pub mod error;
pub mod executor;
pub mod expr;
mod fold;
pub mod group;
pub mod iteration;
pub mod materialize;
mod persist;
pub mod reference;
pub mod row;
pub mod scan;
pub mod schema;
pub mod score;
pub mod table;
pub mod template;
pub mod value;
mod wal;

pub use aggregate::{Aggregate, FinalizeScratch, StateReader, StateWriter};
pub use catalog::ModelCatalog;
pub use chunk::{RowChunk, SelectionMask};
pub use database::{Database, RecoveryReport};
pub use dataset::Dataset;
pub use error::{EngineError, Result};
pub use executor::Executor;
pub use group::{GroupKey, KeyPart};
pub use materialize::{
    AnyMaterialized, MaterializedAggregate, RebuildReason, ViewImage, ViewOutcome,
};
pub use row::Row;
pub use scan::ScanBatch;
pub use schema::{Column, ColumnType, Schema};
pub use score::{GroupScorers, Scorer, Similarity};
pub use table::Table;
pub use value::Value;
