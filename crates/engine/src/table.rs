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
use crate::group::IndexSort;
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use std::borrow::Borrow;
use std::sync::Arc;

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
///
/// Cloning a table — a snapshot — costs one pointer for the schema and one
/// per segment ([`Segment`]), whatever the table holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Arc<Schema>,
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
    pub fn new(schema: impl Into<Arc<Schema>>, num_segments: usize) -> Result<Self> {
        Self::with_distribution(schema, num_segments, Distribution::RoundRobin)
    }

    /// Creates an empty table with an explicit distribution policy.
    ///
    /// # Errors
    /// * [`EngineError::InvalidSegmentCount`] when `num_segments == 0`.
    /// * [`EngineError::ColumnNotFound`] when hashing on an unknown column.
    pub fn with_distribution(
        schema: impl Into<Arc<Schema>>,
        num_segments: usize,
        distribution: Distribution,
    ) -> Result<Self> {
        let schema = schema.into();
        if num_segments == 0 {
            return Err(EngineError::InvalidSegmentCount { requested: 0 });
        }
        if let Distribution::HashColumn(ref name) = distribution {
            schema.index_of(name)?;
        }
        Ok(Self {
            schema,
            segments: vec![Segment::default(); num_segments],
            distribution,
            next_round_robin: 0,
            chunk_capacity: CHUNK_CAPACITY,
            generation: 0,
        })
    }

    /// Assembles a table from whole segments: recovered storage (the
    /// persistence layer's chunk files plus the manifest's tail chunks and
    /// metadata), or segments a scan built in place
    /// ([`crate::Dataset::gather_groups`], [`crate::Dataset::score_into`]).
    pub(crate) fn from_segments(
        schema: Arc<Schema>,
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

    /// The schema, shared (what a snapshot and a derived table clone).
    pub(crate) fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Inserts a row, validating it against the schema and routing it to a
    /// segment according to the distribution policy: the one-row case of
    /// [`Table::insert_all`].
    ///
    /// Values are stored in the column's physical type: a `bigint` value
    /// inserted into a `double precision` column is coerced to `f64` once at
    /// insert (rather than on every scan), so it reads back as
    /// [`Value::Double`] — e.g. from [`Table::iter`], [`Table::column_values`]
    /// and in [`crate::expr::Predicate::ColumnEquals`] comparisons, which
    /// follow SQL in comparing against the column's declared type.  Hash
    /// placement is defined on that **stored** value too: `3` and `3.0`
    /// inserted into a `double precision` distribution column are one key on
    /// one segment.
    ///
    /// # Errors
    /// Propagates schema-validation errors.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.insert_all([row])
    }

    /// Inserts a row into an explicit segment, bypassing the distribution
    /// policy.  Used by consumers that must *preserve* an existing placement
    /// row by row; scans that do so chunk by chunk
    /// ([`crate::dataset::Dataset::gather_groups`]) build their segments with
    /// the same append.
    ///
    /// # Errors
    /// Propagates schema-validation errors; returns
    /// [`EngineError::InvalidArgument`] for an out-of-range segment index.
    pub fn insert_into_segment(&mut self, segment: usize, row: Row) -> Result<()> {
        let chunks = RowChunk::transpose(&self.schema, [row], 1)?;
        let count = self.segments.len();
        let target = self.segments.get_mut(segment).ok_or_else(|| {
            EngineError::invalid(format!(
                "segment index {segment} out of range (table has {count} segments)"
            ))
        })?;
        for chunk in &chunks {
            target.append_rows(chunk, &[0], self.chunk_capacity);
        }
        Ok(())
    }

    /// Inserts many rows, all or none: the rows are transposed once into
    /// chunks of at most the table's chunk capacity
    /// (`RowChunk::transpose`, which validates them against the schema),
    /// and the chunks are appended whole.
    ///
    /// # Errors
    /// Reports the first invalid row or column; the table is unchanged then.
    pub fn insert_all<I: IntoIterator<Item = Row>>(&mut self, rows: I) -> Result<()> {
        let chunks = RowChunk::transpose(&self.schema, rows, self.chunk_capacity)?;
        self.append_chunks(&chunks)
    }

    /// Appends the rows of `chunks`, in order — the one way rows enter a
    /// table through its distribution policy, for the live call, for WAL
    /// replay and for [`Table::repartition`].  Each chunk's rows are dealt to
    /// segments as index runs — the round-robin cursor continued, or the
    /// stable hash of the distribution column's *stored* value — and each
    /// segment fills, seals and opens its tail chunks from its run
    /// ([`Segment::append_rows`]).  Placement, row order and chunk boundaries
    /// are those of inserting the rows one at a time.
    ///
    /// # Errors
    /// Every chunk's columns are checked against the schema before the first
    /// row is copied ([`RowChunk::check_schema`]); on error the table is
    /// unchanged.
    pub(crate) fn append_chunks<C: Borrow<RowChunk>>(&mut self, chunks: &[C]) -> Result<()> {
        for chunk in chunks {
            chunk.borrow().check_schema(&self.schema)?;
        }
        let hash_column = match &self.distribution {
            Distribution::RoundRobin => None,
            Distribution::HashColumn(name) => Some(self.schema.index_of(name)?),
        };
        let segments = self.segments.len();
        let mut runs = IndexSort::default();
        for chunk in chunks {
            let chunk = chunk.borrow();
            match hash_column {
                None => {
                    let cursor = self.next_round_robin;
                    runs.fill((cursor..cursor + chunk.len()).map(|i| (i % segments) as u32));
                    self.next_round_robin = (cursor + chunk.len()) % segments;
                }
                Some(idx) => {
                    let keys = chunk.column(idx);
                    let placed = |i| keys.value_ref(i).stable_hash() % segments as u64;
                    runs.fill((0..chunk.len()).map(|i| placed(i) as u32));
                }
            }
            for (segment, indices) in runs.sorted() {
                self.segments[segment as usize].append_rows(chunk, indices, self.chunk_capacity);
            }
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
        let mut out = Table::with_distribution(
            self.shared_schema(),
            num_segments,
            self.distribution.clone(),
        )?;
        out.chunk_capacity = self.chunk_capacity;
        for segment in &self.segments {
            out.append_chunks(segment.chunks())?;
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

    /// A tiny deterministic generator for the write-path sweeps.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self, below: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % below as u64) as usize
        }
    }

    const ALL_TYPES: [ColumnType; 7] = [
        ColumnType::Double,
        ColumnType::Int,
        ColumnType::Bool,
        ColumnType::Text,
        ColumnType::DoubleArray,
        ColumnType::IntArray,
        ColumnType::TextArray,
    ];

    /// A value `column_type` accepts: NULL one time in five, a `bigint` for a
    /// `double precision` column now and then, ragged (and empty) arrays.
    fn random_value(rng: &mut Lcg, column_type: ColumnType) -> Value {
        if rng.next(5) == 0 {
            return Value::Null;
        }
        let n = rng.next(7) as i64 - 3;
        let len = rng.next(4);
        match column_type {
            ColumnType::Double if rng.next(3) == 0 => Value::Int(n),
            ColumnType::Double => Value::Double(n as f64 + 0.5),
            ColumnType::Int => Value::Int(n),
            ColumnType::Bool => Value::Bool(n > 0),
            ColumnType::Text => Value::Text(format!("t{n}")),
            ColumnType::DoubleArray => {
                Value::DoubleArray((0..len).map(|k| (n + k as i64) as f64).collect())
            }
            ColumnType::IntArray => Value::IntArray((0..len).map(|k| n * k as i64).collect()),
            ColumnType::TextArray => Value::TextArray((0..len).map(|k| format!("w{k}")).collect()),
        }
    }

    /// What a column stores for `value`: a `bigint` in a `double precision`
    /// column is a double.
    fn stored(column_type: ColumnType, value: &Value) -> Value {
        match (column_type, value) {
            (ColumnType::Double, Value::Int(v)) => Value::Double(*v as f64),
            _ => value.clone(),
        }
    }

    /// The write path against a model of the row loop it replaced — row `i`
    /// goes to segment `i % n`, or to the stable hash of its *stored* key,
    /// behind the rows already there, and a segment's chunks hold `capacity`
    /// rows each but the last — over random schemas of all seven column
    /// types, both distributions, chunk capacities 1 / 3 / 1 024 and batches
    /// of 0, 1, capacity ± 1 and several chunks' worth of rows; and however
    /// the rows are batched (one `insert` each, `insert_all` batches, chunks
    /// transposed at another capacity) the tables are `==`, chunk boundaries,
    /// NULL slots and round-robin cursor included.
    #[test]
    fn every_batching_of_an_append_is_the_row_loop() {
        let mut rng = Lcg(7);
        for round in 0..60 {
            let arity = 1 + rng.next(5);
            let types: Vec<ColumnType> = (0..arity).map(|_| ALL_TYPES[rng.next(7)]).collect();
            let columns = types.iter().enumerate();
            let schema = Schema::new(
                columns
                    .map(|(i, t)| Column::new(format!("c{i}"), *t))
                    .collect(),
            );
            let segments = 1 + rng.next(4);
            let capacity = [1, 3, 1024][round % 3];
            let key = rng.next(arity);
            let distribution = match round % 2 {
                0 => Distribution::RoundRobin,
                _ => Distribution::HashColumn(format!("c{key}")),
            };
            let empty = || {
                Table::with_distribution(schema.clone(), segments, distribution.clone())
                    .unwrap()
                    .with_chunk_capacity(capacity)
                    .unwrap()
            };
            let sizes = [0, 1, capacity - 1, capacity, capacity + 1, 3 * capacity + 2];
            let batches: Vec<Vec<Row>> = sizes
                .iter()
                .map(|&size| {
                    let row = |rng: &mut Lcg| types.iter().map(|t| random_value(rng, *t)).collect();
                    (0..size.min(2500))
                        .map(|_| Row::new(row(&mut rng)))
                        .collect()
                })
                .collect();

            let mut by_row = empty();
            let mut by_batch = empty();
            let mut by_chunk = empty();
            for batch in &batches {
                for row in batch {
                    by_row.insert(row.clone()).unwrap();
                }
                by_batch.insert_all(batch.iter().cloned()).unwrap();
                let odd = RowChunk::transpose(&schema, batch.iter().cloned(), 5).unwrap();
                by_chunk.append_chunks(&odd).unwrap();
            }
            assert_eq!(by_batch, by_row, "round {round}: insert_all");
            assert_eq!(by_chunk, by_row, "round {round}: append_chunks");
            assert_eq!(by_batch.next_round_robin(), by_row.next_round_robin());

            // The model.
            let mut expected: Vec<Vec<Row>> = vec![Vec::new(); segments];
            for (i, row) in batches.iter().flatten().enumerate() {
                let values = row.values().iter().zip(&types);
                let values: Vec<Value> = values.map(|(v, t)| stored(*t, v)).collect();
                let segment = match &distribution {
                    Distribution::RoundRobin => i % segments,
                    Distribution::HashColumn(_) => {
                        (values[key].stable_hash() % segments as u64) as usize
                    }
                };
                expected[segment].push(Row::new(values));
            }
            for (s, rows) in expected.iter().enumerate() {
                let segment = by_row.segment(s);
                assert_eq!(&segment.iter().collect::<Vec<_>>(), rows, "round {round}");
                let lens: Vec<usize> = segment.chunks().iter().map(|c| c.len()).collect();
                let full = rows.len() / capacity;
                let mut model = vec![capacity; full];
                model.extend(Some(rows.len() % capacity).filter(|&rest| rest > 0));
                assert_eq!(lens, model, "round {round}: chunk boundaries");
            }
            if distribution == Distribution::RoundRobin {
                let total: usize = batches.iter().map(Vec::len).sum();
                assert_eq!(by_row.next_round_robin(), total % segments);
            }

            // Repartitioning is the same append, chunk by chunk.
            let target = 1 + rng.next(4);
            let mut reinserted = Table::with_distribution(schema.clone(), target, distribution)
                .unwrap()
                .with_chunk_capacity(capacity)
                .unwrap();
            reinserted.insert_all(by_row.iter()).unwrap();
            assert_eq!(by_row.repartition(target).unwrap(), reinserted);
        }
    }

    /// A batch is all or nothing: one bad value or one short row, in the
    /// *last* row, and nothing of the batch is in the table.
    #[test]
    fn a_batch_with_a_bad_last_row_leaves_the_table_untouched() {
        for distribution in [
            Distribution::RoundRobin,
            Distribution::HashColumn("id".into()),
        ] {
            let mut t = Table::with_distribution(schema(), 3, distribution)
                .unwrap()
                .with_chunk_capacity(2)
                .unwrap();
            t.insert_all((0..5).map(|i| row![i as i64, i as f64]))
                .unwrap();
            let before = t.clone();
            let good = (5..12).map(|i| row![i as i64, i as f64]);
            let bad_type = good.clone().chain([row![12i64, "twelve"]]);
            assert!(matches!(
                t.insert_all(bad_type),
                Err(EngineError::TypeMismatch { found, .. }) if found.contains("column v")
            ));
            assert_eq!(t, before);
            let bad_arity = good.chain([Row::new(vec![Value::Int(12)])]);
            assert!(matches!(
                t.insert_all(bad_arity),
                Err(EngineError::ArityMismatch {
                    expected: 2,
                    found: 1
                })
            ));
            assert_eq!(t, before);
            // A chunk of another shape is refused before its first row too.
            let other = Schema::new(vec![Column::new("id", ColumnType::Int)]);
            let chunks = RowChunk::transpose(&other, [row![1i64]], 2).unwrap();
            assert!(t.append_chunks(&chunks).is_err());
            let swapped = Schema::new(vec![
                Column::new("id", ColumnType::Double),
                Column::new("v", ColumnType::Int),
            ]);
            let chunks = RowChunk::transpose(&swapped, [row![1.0, 1i64]], 2).unwrap();
            assert!(matches!(
                t.append_chunks(&chunks),
                Err(EngineError::TypeMismatch { .. })
            ));
            assert_eq!(t, before);
            assert!(t.insert_into_segment(3, row![1i64, 1.0]).is_err());
            assert_eq!(t, before);
        }
    }

    /// Placement is defined on the stored value: `3` and `3.0` in a
    /// `double precision` distribution column are one key.  (The row loop
    /// hashed the value as given, before the coercion, so the two landed on
    /// different segments.)
    #[test]
    fn a_coerced_key_is_placed_as_the_stored_value() {
        let mut t =
            Table::with_distribution(schema(), 7, Distribution::HashColumn("v".into())).unwrap();
        for key in 0..40i64 {
            t.insert(row![key, Value::Int(key)]).unwrap();
            t.insert(row![key, Value::Double(key as f64)]).unwrap();
        }
        for s in 0..7 {
            for row in t.segment(s).iter() {
                let hash = row.get(1).stable_hash();
                assert_eq!((hash % 7) as usize, s, "{row:?}");
                assert!(matches!(row.get(1), Value::Double(_)));
            }
            // Both spellings of a key sit side by side.
            assert_eq!(t.segment(s).len() % 2, 0);
        }
        // A value that needed no coercion hashes as `Value::stable_hash` did.
        let mut by_id =
            Table::with_distribution(schema(), 5, Distribution::HashColumn("id".into())).unwrap();
        by_id
            .insert_all((0..50).map(|i| row![i as i64, 0.0]))
            .unwrap();
        for s in 0..5 {
            let mut rows = by_id.segment(s).iter();
            assert!(rows.all(|row| (Value::stable_hash(row.get(0)) % 5) as usize == s));
        }
    }
}
