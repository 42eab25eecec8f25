//! Partitioned tables with chunked, column-major segment storage.
//!
//! A [`Table`] is the engine's unit of storage: a schema plus rows spread
//! across a fixed number of *segments* (partitions).  Each segment models one
//! Greenplum segment process from the paper's evaluation cluster; the
//! executor runs one worker thread per segment so that aggregate transition
//! functions stream over their local partition exactly as a parallel DBMS
//! would.
//!
//! Rows are distributed either round-robin (the default, giving balanced
//! partitions for the dense numeric workloads in the paper's Section 4.4
//! experiments) or by hashing a distribution column (`DISTRIBUTED BY` in
//! Greenplum DDL).
//!
//! Within a segment, rows live in fixed-capacity column-major
//! [`RowChunk`]s (see [`crate::chunk`]): each column of a chunk is one
//! contiguous buffer, so the executor's vectorized path can hand whole
//! columns to batched kernels instead of unpacking [`Value`]s row by row.
//! Row-shaped access ([`Table::iter`], [`Segment::iter`]) materializes rows
//! on demand and is intended for small results and tests; large scans should
//! go through [`crate::Executor`].

use crate::chunk::{Segment, CHUNK_CAPACITY};
use crate::error::{EngineError, Result};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;

pub use crate::chunk::RowChunk;

/// How rows are assigned to segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Distribution {
    /// Round-robin assignment (balanced, no locality guarantee).
    RoundRobin,
    /// Hash of the named column (co-locates equal keys).
    HashColumn(String),
}

/// A schema-validated, segment-partitioned, in-memory table with column-major
/// chunked storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    segments: Vec<Segment>,
    distribution: Distribution,
    next_round_robin: usize,
    chunk_capacity: usize,
    generation: u64,
}

impl Table {
    /// Creates an empty table with the given schema, segment count and
    /// round-robin distribution.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidSegmentCount`] when `num_segments == 0`.
    pub fn new(schema: Schema, num_segments: usize) -> Result<Self> {
        Self::with_distribution(schema, num_segments, Distribution::RoundRobin)
    }

    /// Creates an empty table with an explicit distribution policy.
    ///
    /// # Errors
    /// * [`EngineError::InvalidSegmentCount`] when `num_segments == 0`.
    /// * [`EngineError::ColumnNotFound`] when hashing on an unknown column.
    pub fn with_distribution(
        schema: Schema,
        num_segments: usize,
        distribution: Distribution,
    ) -> Result<Self> {
        if num_segments == 0 {
            return Err(EngineError::InvalidSegmentCount { requested: 0 });
        }
        if let Distribution::HashColumn(ref name) = distribution {
            schema.index_of(name)?;
        }
        Ok(Self {
            schema,
            segments: (0..num_segments).map(|_| Segment::new()).collect(),
            distribution,
            next_round_robin: 0,
            chunk_capacity: CHUNK_CAPACITY,
            generation: 0,
        })
    }

    /// Reassembles a table from recovered segment storage (the persistence
    /// layer's chunk files plus the manifest's tail chunks and metadata).
    pub(crate) fn from_recovered(
        schema: Schema,
        segments: Vec<Segment>,
        distribution: Distribution,
        next_round_robin: usize,
        chunk_capacity: usize,
    ) -> Self {
        Self {
            schema,
            segments,
            distribution,
            next_round_robin,
            chunk_capacity,
            generation: 0,
        }
    }

    /// The next round-robin segment cursor (persisted so that recovery
    /// continues routing appends exactly where the pre-crash table would).
    pub(crate) fn next_round_robin(&self) -> usize {
        self.next_round_robin
    }

    /// Overrides the number of rows per chunk (default
    /// [`CHUNK_CAPACITY`]).  Must be called on an empty table; used by tests
    /// and benchmarks to exercise chunk-boundary behaviour.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidArgument`] when the capacity is zero or
    /// the table already has rows.
    pub fn with_chunk_capacity(mut self, chunk_capacity: usize) -> Result<Self> {
        if chunk_capacity == 0 {
            return Err(EngineError::invalid("chunk capacity must be positive"));
        }
        if !self.is_empty() {
            return Err(EngineError::invalid(
                "chunk capacity can only be set on an empty table",
            ));
        }
        self.chunk_capacity = chunk_capacity;
        Ok(self)
    }

    /// Rows per chunk in segment storage.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of segments (partitions).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total number of rows across all segments.
    pub fn row_count(&self) -> usize {
        self.segments.iter().map(Segment::len).sum()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.row_count() == 0
    }

    /// A single segment's chunked storage.
    pub fn segment(&self, idx: usize) -> &Segment {
        &self.segments[idx]
    }

    /// The distribution policy.
    pub fn distribution(&self) -> &Distribution {
        &self.distribution
    }

    /// The table's lifecycle generation.
    ///
    /// [`crate::Database`] assigns a fresh generation whenever the identity
    /// of a cataloged table's contents changes wholesale — create, register,
    /// replace, truncate, or drop-and-recreate under the same name.  Chunk
    /// watermarks ([`crate::materialize::MaterializedAggregate`]) record the
    /// generation they absorbed; a mismatch proves the watermark's chunk
    /// counts describe a *different* table incarnation, forcing a rebuild
    /// instead of silently folding the new table's suffix onto stale partial
    /// states.  Standalone tables built directly via [`Table::new`] keep
    /// generation 0.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Stamps the table with a database-assigned lifecycle generation.
    pub(crate) fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Inserts a row, validating it against the schema and routing it to a
    /// segment according to the distribution policy.
    ///
    /// Values are stored in the column's physical type: a `bigint` value
    /// inserted into a `double precision` column is coerced to `f64` once at
    /// insert (rather than on every scan), so it reads back as
    /// [`Value::Double`] — e.g. from [`Table::iter`], [`Table::column_values`]
    /// and in [`crate::expr::Predicate::ColumnEquals`] comparisons, which
    /// follow SQL in comparing against the column's declared type.
    ///
    /// # Errors
    /// Propagates schema-validation errors.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.validate(row.values())?;
        let seg = match &self.distribution {
            Distribution::RoundRobin => {
                let seg = self.next_round_robin;
                self.next_round_robin = (self.next_round_robin + 1) % self.segments.len();
                seg
            }
            Distribution::HashColumn(name) => {
                let idx = self.schema.index_of(name)?;
                (row.get(idx).stable_hash() % self.segments.len() as u64) as usize
            }
        };
        self.segments[seg].push(&self.schema, row.values(), self.chunk_capacity)
    }

    /// Inserts a row into an explicit segment, bypassing the distribution
    /// policy.  Used by consumers that must *preserve* an existing placement —
    /// e.g. [`crate::dataset::Dataset::gather_groups`], which splits a table
    /// into per-group tables whose rows keep their original segment so that
    /// per-segment scan and merge order (and therefore bitwise results) are
    /// unchanged.
    ///
    /// # Errors
    /// Propagates schema-validation errors; returns
    /// [`EngineError::InvalidArgument`] for an out-of-range segment index.
    pub fn insert_into_segment(&mut self, segment: usize, row: Row) -> Result<()> {
        self.schema.validate(row.values())?;
        if segment >= self.segments.len() {
            return Err(EngineError::invalid(format!(
                "segment index {segment} out of range (table has {} segments)",
                self.segments.len()
            )));
        }
        self.segments[segment].push(&self.schema, row.values(), self.chunk_capacity)
    }

    /// Inserts many rows.
    ///
    /// # Errors
    /// Stops at and reports the first invalid row.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        for row in rows {
            self.insert(row)?;
        }
        Ok(())
    }

    /// Iterates over all rows in segment order, materializing each row from
    /// the column-major chunks.  Large scans inside methods should instead go
    /// through the parallel [`crate::Executor`]; this serial iterator exists
    /// for small result tables and tests.
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.segments.iter().flat_map(|s| s.iter())
    }

    /// Collects all rows into a vector (serial; for small tables).
    pub fn collect_rows(&self) -> Vec<Row> {
        self.iter().collect()
    }

    /// Returns a new table with identical content but repartitioned across a
    /// different number of segments.  Used by the benchmark harness to sweep
    /// the "# segments" axis of Figure 4 over the same logical data.
    ///
    /// # Errors
    /// Returns [`EngineError::InvalidSegmentCount`] when `num_segments == 0`.
    pub fn repartition(&self, num_segments: usize) -> Result<Table> {
        let mut out =
            Table::with_distribution(self.schema.clone(), num_segments, self.distribution.clone())?;
        out.chunk_capacity = self.chunk_capacity;
        for row in self.iter() {
            out.insert(row)?;
        }
        Ok(out)
    }

    /// Extracts a single column as values, in segment order.
    ///
    /// # Errors
    /// Returns [`EngineError::ColumnNotFound`] for an unknown column.
    pub fn column_values(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(name)?;
        let mut out = Vec::with_capacity(self.row_count());
        for segment in &self.segments {
            for chunk in segment.chunks() {
                for i in 0..chunk.len() {
                    out.push(chunk.value(i, idx));
                }
            }
        }
        Ok(out)
    }

    /// Truncates the table, keeping schema and partitioning.  What follows
    /// is a new incarnation of the contents, so the table drops back to
    /// generation 0 ("not stamped"); [`crate::Database`] stamps a fresh one
    /// before it lets go of the table's lock.
    pub fn truncate(&mut self) {
        for seg in &mut self.segments {
            seg.clear();
        }
        self.next_round_robin = 0;
        self.generation = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("v", ColumnType::Double),
        ])
    }

    #[test]
    fn round_robin_balances_rows() {
        let mut t = Table::new(schema(), 4).unwrap();
        for i in 0..100 {
            t.insert(row![i as i64, i as f64]).unwrap();
        }
        assert_eq!(t.row_count(), 100);
        for s in 0..4 {
            assert_eq!(t.segment(s).len(), 25);
        }
        assert!(!t.is_empty());
    }

    #[test]
    fn hash_distribution_colocates_keys() {
        let mut t =
            Table::with_distribution(schema(), 4, Distribution::HashColumn("id".into())).unwrap();
        for i in 0..40 {
            t.insert(row![(i % 4) as i64, i as f64]).unwrap();
        }
        // Every row with the same id must be in the same segment.
        for key in 0..4i64 {
            let segments_containing: Vec<usize> = (0..4)
                .filter(|&s| t.segment(s).iter().any(|r| r.get(0) == &Value::Int(key)))
                .collect();
            assert_eq!(
                segments_containing.len(),
                1,
                "key {key} split across segments"
            );
        }
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = Table::new(schema(), 2).unwrap();
        assert!(t.insert(row!["not an int", 1.0]).is_err());
        assert!(t.insert(Row::new(vec![Value::Int(1)])).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn zero_segments_rejected() {
        assert!(Table::new(schema(), 0).is_err());
        assert!(
            Table::with_distribution(schema(), 2, Distribution::HashColumn("missing".into()))
                .is_err()
        );
    }

    #[test]
    fn repartition_preserves_rows() {
        let mut t = Table::new(schema(), 3).unwrap();
        for i in 0..10 {
            t.insert(row![i as i64, (i * 2) as f64]).unwrap();
        }
        let r = t.repartition(7).unwrap();
        assert_eq!(r.num_segments(), 7);
        assert_eq!(r.row_count(), 10);
        let mut ids: Vec<i64> = r
            .column_values("id")
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert!(t.repartition(0).is_err());
    }

    #[test]
    fn truncate_and_column_values() {
        let mut t = Table::new(schema(), 2).unwrap();
        t.insert(row![1i64, 5.0]).unwrap();
        t.insert(row![2i64, 6.0]).unwrap();
        let vals = t.column_values("v").unwrap();
        assert_eq!(vals.len(), 2);
        assert!(t.column_values("nope").is_err());
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.num_segments(), 2);
    }

    #[test]
    fn insert_all_and_collect() {
        let mut t = Table::new(schema(), 2).unwrap();
        t.insert_all((0..6).map(|i| row![i as i64, 0.0])).unwrap();
        assert_eq!(t.collect_rows().len(), 6);
        assert_eq!(t.iter().count(), 6);
    }

    #[test]
    fn storage_is_chunked_column_major() {
        let mut t = Table::new(schema(), 2)
            .unwrap()
            .with_chunk_capacity(3)
            .unwrap();
        assert_eq!(t.chunk_capacity(), 3);
        for i in 0..14 {
            t.insert(row![i as i64, i as f64]).unwrap();
        }
        // 7 rows per segment at capacity 3 -> chunks of 3, 3, 1.
        for s in 0..2 {
            let chunks = t.segment(s).chunks();
            assert_eq!(chunks.len(), 3);
            assert_eq!(chunks[0].len(), 3);
            assert_eq!(chunks[2].len(), 1);
            // The double column of a chunk is one contiguous slice.
            let v = chunks[0].doubles(1).unwrap();
            assert_eq!(v.values.len(), 3);
        }
        // Repartition keeps the overridden capacity.
        assert_eq!(t.repartition(3).unwrap().chunk_capacity(), 3);
    }

    #[test]
    fn chunk_capacity_guard_rails() {
        let t = Table::new(schema(), 1).unwrap();
        assert!(t.clone().with_chunk_capacity(0).is_err());
        let mut populated = Table::new(schema(), 1).unwrap();
        populated.insert(row![1i64, 1.0]).unwrap();
        assert!(populated.with_chunk_capacity(8).is_err());
    }
}
