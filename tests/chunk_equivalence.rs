//! Chunk-path ≡ row-reference properties.
//!
//! Every scan terminal runs chunk at a time, and every `transition_chunk`
//! override must produce exactly the state the per-row `transition` would,
//! floating-point accumulation order included.  The per-row meaning is
//! `madlib::engine::reference` (each row materialised, filtered and folded
//! with `transition`); these property tests hold the chunked terminals to it
//! bit for bit — the linear-regression state, the built-in SQL aggregates,
//! grouped aggregation on both its gather and radix paths, and the sketch
//! adapters — over randomized data with NULL-bearing rows, ragged
//! partitions, empty segments, and chunk capacities small enough that every
//! scan crosses several chunk boundaries.  Aggregates private to a method
//! crate are held to their per-row fallback where they live (the IRLS and
//! Lloyd steps in `madlib-core`); here the IGD objectives are held to theirs
//! chunk by chunk, and the k-means fit to a materializing reference.  Every
//! estimator's whole fit against the same rows one per chunk is the
//! conformance kit's (`tests/conformance.rs`).

use madlib::convex::objective::sgd_epoch_chunk_by_rows;
use madlib::convex::objectives::{LeastSquaresObjective, LogisticObjective};
use madlib::convex::ConvexObjective;
use madlib::engine::aggregate::{Aggregate, AvgAggregate, CountAggregate, SumAggregate};
use madlib::engine::expr::Predicate;
use madlib::engine::{
    reference, row, Column, ColumnType, Dataset, Executor, Row, Schema, Table, Value,
};
use madlib::linalg::array_ops::closest_column;
use madlib::methods::cluster::seeding::seed_centroids;
use madlib::methods::cluster::{KMeans, SeedingMethod};
use madlib::methods::datasets::labeled_point_schema;
use madlib::methods::regress::LinearRegression;
use madlib::methods::Estimator;
use madlib::sketch::{FmDistinctAggregate, MostFrequentValuesAggregate, SummaryAggregate};
use proptest::prelude::*;

mod common;

use common::bits;

/// Builds the dataset for one executor.
fn dataset(table: &Table, executor: &Executor) -> Dataset {
    Dataset::from_table(table).with_executor(*executor)
}

/// Exposes the raw linear-regression transition state (row count + `XᵀX`
/// accumulator bits) as the aggregate output — the grouped-scan equivalence
/// tests compare this instead of fitted models, because per-group fits of
/// tiny random groups can be singular, which is finalize's concern rather
/// than the scan's.
struct LinregrStateProbe(LinearRegression);

impl Aggregate for LinregrStateProbe {
    type State = <LinearRegression as Aggregate>::State;
    type Output = (u64, Vec<u64>);
    fn initial_state(&self) -> Self::State {
        self.0.initial_state()
    }
    fn transition(
        &self,
        state: &mut Self::State,
        row: &Row,
        schema: &Schema,
    ) -> madlib::engine::Result<()> {
        self.0.transition(state, row, schema)
    }
    fn transition_chunk(
        &self,
        state: &mut Self::State,
        chunk: &madlib::engine::RowChunk,
        schema: &Schema,
    ) -> madlib::engine::Result<()> {
        self.0.transition_chunk(state, chunk, schema)
    }
    fn merge(&self, left: Self::State, right: Self::State) -> Self::State {
        self.0.merge(left, right)
    }
    fn finalize(&self, state: Self::State) -> madlib::engine::Result<Self::Output> {
        Ok((
            state.num_rows,
            state
                .x_transp_x
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        ))
    }
}

/// Builds a labeled-point table with a deliberately tiny chunk capacity so
/// scans cross many chunk boundaries, plus optional NULL rows.
fn labeled_table(
    points: &[(f64, [f64; 3])],
    null_every: Option<usize>,
    segments: usize,
    chunk_capacity: usize,
) -> Table {
    let mut t = Table::new(labeled_point_schema(), segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for (i, (y, x)) in points.iter().enumerate() {
        if null_every.is_some_and(|n| i % n == 0) {
            t.insert(Row::new(vec![Value::Null, Value::Null])).unwrap();
        } else {
            t.insert(row![*y, x.to_vec()]).unwrap();
        }
    }
    t
}

/// A `(id, keep, coords)` table inserted round-robin, whose `keep` column
/// makes `keep > 0.5` drop every row of each segment's chunks 1, 4, 7, …
/// (whole chunks emptied), every fifth row elsewhere (chunks compacted) and,
/// having a NULL `keep`, every eleventh.
fn kept_points_table(
    coords: impl Iterator<Item = Value>,
    segments: usize,
    chunk_capacity: usize,
) -> Table {
    let schema = Schema::new(vec![
        Column::new("id", ColumnType::Int),
        Column::new("keep", ColumnType::Double),
        Column::new("coords", ColumnType::DoubleArray),
    ]);
    let mut table = Table::new(schema, segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for (i, point) in coords.enumerate() {
        let keep = if i % 11 == 3 {
            Value::Null
        } else {
            let dropped = (i / (segments * chunk_capacity)) % 3 == 1 || i % 5 == 0;
            Value::Double(if dropped { 0.0 } else { 1.0 })
        };
        table
            .insert(Row::new(vec![Value::Int(i as i64), keep, point]))
            .unwrap();
    }
    table
}

proptest! {
    /// NULL-bearing rows: the built-in NULL-skipping aggregates agree with
    /// the per-row reference bit for bit, and so does chunk-level predicate
    /// evaluation.  (Estimators refusing NULL inputs is the conformance
    /// kit's `rejects_empty_and_degenerate_input`.)
    #[test]
    fn null_rows_behave_identically(
        points in prop::collection::vec((-10.0..10.0f64, [-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64]), 2..60),
        null_every in 2usize..6,
        segments in 1usize..5,
        chunk_capacity in 1usize..20,
    ) {
        let table = labeled_table(&points, Some(null_every), segments, chunk_capacity);
        let ds = Dataset::from_table(&table);

        // SQL aggregates skip NULLs identically.
        let sum_c = ds.aggregate(&SumAggregate::new("y")).unwrap();
        let sum_r = reference::aggregate(&ds, &SumAggregate::new("y")).unwrap();
        prop_assert_eq!(sum_c.to_bits(), sum_r.to_bits());
        let avg_c = ds.aggregate(&AvgAggregate::new("y")).unwrap();
        let avg_r = reference::aggregate(&ds, &AvgAggregate::new("y")).unwrap();
        prop_assert_eq!(avg_c.map(f64::to_bits), avg_r.map(f64::to_bits));

        // Chunk-level predicate evaluation agrees with per-row evaluation,
        // NULLs never matching.
        let pred = Predicate::column_gt("y", 0.0).or(Predicate::ColumnIsNull { column: "y".into() });
        let filtered = ds.filter(pred);
        let (count, stats) = filtered.aggregate_with_stats(&CountAggregate).unwrap();
        prop_assert_eq!(count, reference::aggregate(&filtered, &CountAggregate).unwrap());
        prop_assert_eq!(stats.rows_aggregated, count);
    }

    /// k-means, the whole fit against a reference kept here: the fit as it was
    /// before it ran on chunk scans, rebuilt from public pieces — materialize
    /// the rows, `seed_centroids` over the `Vec` of points, Lloyd's passes
    /// from those seeds (a warm-started fit on the calling thread; the Lloyd
    /// step's kernel is held to its per-row `transition` in `madlib-core`),
    /// a per-row `closest_column` inertia summed in scan order.  The chunked
    /// fit (parallel distance passes, `nth_row` seed fetches, the kernel's
    /// distance output) must reproduce it bit for bit under both thread
    /// settings, with and without a filter that empties whole chunks and
    /// thins others.
    #[test]
    fn kmeans_fit_is_the_materialized_reference(
        points in prop::collection::vec([-20.0..20.0f64, -20.0..20.0f64, -20.0..20.0f64], 8..120),
        k in 1usize..6,
        segments in 1usize..6,
        chunk_capacity in 1usize..31,
        seed in 0u64..1000,
        plus_plus in any::<bool>(),
    ) {
        let seeding = if plus_plus { SeedingMethod::KMeansPlusPlus } else { SeedingMethod::Random };
        let table = kept_points_table(
            points.iter().map(|p| Value::DoubleArray(p.to_vec())),
            segments,
            chunk_capacity,
        );
        for filter in [None, Some(Predicate::column_gt("keep", 0.5))] {
            let bind = |exec: Executor| {
                let ds = Dataset::from_table(&table).with_executor(exec);
                match &filter {
                    Some(predicate) => ds.filter(predicate.clone()),
                    None => ds,
                }
            };
            let estimator = KMeans::new("coords", k)
                .unwrap()
                .with_seeding(seeding)
                .with_seed(seed)
                .with_max_iterations(15);

            let serial = bind(Executor::serial());
            let materialized: Vec<Vec<f64>> = serial
                .collect_rows()
                .unwrap()
                .iter()
                .map(|row| row.get(2).as_double_array().unwrap().to_vec())
                .collect();
            prop_assume!(materialized.len() >= k);
            let seeds = seed_centroids(&materialized, k, seeding, seed).unwrap();
            let lloyd = estimator
                .clone()
                .with_initial_centroids(seeds)
                .fit(&serial)
                .unwrap();
            let inertia: f64 = materialized
                .iter()
                .map(|p| closest_column(&lloyd.centroids, p).unwrap().1)
                .collect::<Vec<f64>>()
                .iter()
                .sum();

            for exec in [Executor::new(), Executor::serial()] {
                let fitted = estimator.fit(&bind(exec)).unwrap();
                prop_assert_eq!(fitted.centroids.len(), k);
                for (a, b) in fitted.centroids.iter().zip(&lloyd.centroids) {
                    prop_assert_eq!(bits(a), bits(b));
                }
                prop_assert_eq!(fitted.inertia.to_bits(), inertia.to_bits());
                prop_assert_eq!(fitted.iterations, lloyd.iterations);
                prop_assert_eq!(fitted.converged, lloyd.converged);
                prop_assert_eq!(fitted.num_points, materialized.len());
            }
        }
    }

    /// `nth_row(p)` is `collect_rows()[p]` for every position, and `None` one
    /// past the end — filtered (whole chunks emptied, others thinned, NULL
    /// filter values never matching) or not, NULL-bearing rows included.
    #[test]
    fn nth_row_indexes_the_scan(
        rows in 0usize..90,
        segments in 1usize..6,
        chunk_capacity in 1usize..31,
        filtered in any::<bool>(),
    ) {
        let table = kept_points_table(
            (0..rows).map(|i| {
                if i % 4 == 1 { Value::Null } else { Value::DoubleArray(vec![i as f64; i % 3]) }
            }),
            segments,
            chunk_capacity,
        );
        let mut ds = Dataset::from_table(&table);
        if filtered {
            ds = ds.filter(Predicate::column_gt("keep", 0.5));
        }
        let expected = ds.collect_rows().unwrap();
        prop_assert!(filtered || expected.len() == rows);
        for position in 0..=expected.len() {
            prop_assert_eq!(ds.nth_row(position).unwrap().as_ref(), expected.get(position));
        }
        prop_assert_eq!(ds.first_row().unwrap().as_ref(), expected.first());
    }

    /// The IGD epoch: each objective's `sgd_epoch_chunk` (the vectorized
    /// least-squares / logistic updates, or the default fallback) must
    /// replay `sgd_epoch_chunk_by_rows` — the per-row update sequence —
    /// chunk after chunk, model bits and row counts, NULL rows included.
    /// Logistic runs twice: on the raw labels, which it refuses at the same
    /// row either way, and on the labels rounded into {−1, 0, 1}.
    #[test]
    fn igd_chunk_path_is_bit_identical(
        points in prop::collection::vec((-5.0..5.0f64, [-2.0..2.0f64, -2.0..2.0f64, -2.0..2.0f64]), 4..80),
        segments in 1usize..5,
        chunk_capacity in 1usize..25,
        null_every_raw in 0usize..12,
        step in 0.001..0.1f64,
    ) {
        let null_every = (null_every_raw >= 2).then_some(null_every_raw);
        let table = labeled_table(&points, null_every, segments, chunk_capacity);
        let classes: Vec<_> = points.iter().map(|&(y, x)| (y.round().clamp(-1.0, 1.0), x)).collect();
        let classes = labeled_table(&classes, null_every, segments, chunk_capacity);
        let least_squares = LeastSquaresObjective::new("y", "x", 3);
        let logistic = LogisticObjective::new("y", "x", 3);
        let runs = [
            (&least_squares as &dyn ConvexObjective, &table),
            (&logistic, &table),
            (&logistic, &classes),
        ];
        for (objective, table) in runs {
            let schema = table.schema();
            let (mut chunked, mut by_rows) = (vec![0.0; 3], vec![0.0; 3]);
            let (mut scratch_a, mut scratch_b) = (vec![0.0; 3], vec![0.0; 3]);
            'scan: for seg in 0..table.num_segments() {
                for chunk in table.segment(seg).chunks() {
                    let a =
                        objective.sgd_epoch_chunk(chunk, schema, &mut chunked, &mut scratch_a, step);
                    let b = sgd_epoch_chunk_by_rows(
                        objective, chunk, schema, &mut by_rows, &mut scratch_b, step,
                    );
                    prop_assert_eq!(bits(&chunked), bits(&by_rows));
                    prop_assert_eq!(&a, &b);
                    if a.is_err() {
                        break 'scan;
                    }
                }
            }
        }
    }

    /// Grouped aggregation: the segment-parallel chunked grouped scan must be
    /// bit-identical to the grouped per-row reference — same groups, same
    /// key order, same per-group states — across ragged partitions, chunk
    /// boundaries, NULL group keys, tricky float keys (-0.0 / NaN), group
    /// counts that exercise both the gather path and the radix pass, and
    /// filtered scans.
    #[test]
    fn grouped_chunked_equals_grouped_reference(
        points in prop::collection::vec((0usize..12, -10.0..10.0f64, [-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64]), 1..150),
        distinct_keys in 1usize..12,
        (segments, chunk_capacity) in (1usize..6, 1usize..40),
        key_flavor in 0usize..3,
        null_every_raw in 0usize..6,
        filtered in any::<bool>(),
    ) {
        // 0/1 mean "no NULL keys" (the vendored proptest has no option strategy).
        let null_every = (null_every_raw >= 2).then_some(null_every_raw);
        let schema = Schema::new(vec![
            Column::new("grp", match key_flavor {
                0 => ColumnType::Text,
                1 => ColumnType::Int,
                _ => ColumnType::Double,
            }),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (i, (key, y, x)) in points.iter().enumerate() {
            let k = key % distinct_keys;
            let group: Value = if null_every.is_some_and(|n| i % n == 0) {
                Value::Null
            } else {
                match key_flavor {
                    0 => Value::Text(format!("g{k}")),
                    1 => Value::Int(k as i64 - 4),
                    // Exercise -0.0 / 0.0 / NaN as live group keys.
                    _ => match k {
                        0 => Value::Double(0.0),
                        1 => Value::Double(-0.0),
                        2 => Value::Double(f64::NAN),
                        k => Value::Double(k as f64),
                    },
                }
            };
            table
                .insert(Row::new(vec![group, Value::Double(*y), Value::DoubleArray(x.to_vec())]))
                .unwrap();
        }
        let filter = filtered.then(|| Predicate::column_gt("y", 0.0));
        let mut grouped = Dataset::from_table(&table).group_by(["grp"]);
        if let Some(pred) = &filter {
            grouped = grouped.filter(pred.clone());
        }

        // count(*) and sum(y) per group: counts are exact, sums must match
        // bit for bit.
        let count_c = grouped.aggregate_per_group(&CountAggregate).unwrap();
        let count_r = reference::aggregate_per_group(&grouped, &CountAggregate).unwrap();
        prop_assert_eq!(count_c.len(), count_r.len());
        for ((ka, ca), (kb, cb)) in count_c.iter().zip(&count_r) {
            prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(ca, cb);
        }
        let expected_rows: u64 = count_c.iter().map(|(_, c)| c).sum();
        let survivors = if let Some(pred) = &filter {
            table.iter().filter(|r| pred.evaluate(r, table.schema()).unwrap()).count() as u64
        } else {
            points.len() as u64
        };
        prop_assert_eq!(expected_rows, survivors);

        let sum_c = grouped.aggregate_per_group(&SumAggregate::new("y")).unwrap();
        let sum_r = reference::aggregate_per_group(&grouped, &SumAggregate::new("y")).unwrap();
        prop_assert_eq!(sum_c.len(), sum_r.len());
        for ((ka, va), (kb, vb)) in sum_c.iter().zip(&sum_r) {
            prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }

        // One linear regression per group — the Section 4.2 flagship — runs
        // the vectorized kernels on the gather path; states must still be
        // bit-identical.
        if null_every.is_none() {
            let scan = LinregrStateProbe(LinearRegression::new("y", "x"));
            let lin_c = grouped.aggregate_per_group(&scan).unwrap();
            let lin_r = reference::aggregate_per_group(&grouped, &scan).unwrap();
            prop_assert_eq!(lin_c.len(), lin_r.len());
            for ((ka, sa), (kb, sb)) in lin_c.iter().zip(&lin_r) {
                prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
                prop_assert_eq!(sa, sb);
            }
        }
    }

    /// High-cardinality grouped scans — at least as many distinct groups as
    /// any chunk holds rows, so the chunked path runs its radix partition
    /// pass (bucket staging across chunks + batched per-group flushes)
    /// instead of direct per-chunk gathers.  The partitioned scan must stay
    /// bit-identical to the per-row reference: same groups, same key
    /// order, same per-group state bits — across ragged partitions, empty
    /// segments, filtered scans, and strides that scatter a group's rows
    /// over many chunks.
    #[test]
    fn high_cardinality_radix_path_is_bit_identical(
        num_rows in 0usize..260,
        segments in 1usize..8,
        chunk_capacity in 1usize..33,
        group_divisor in 1usize..3,
        key_stride in 1usize..5,
        filtered in any::<bool>(),
    ) {
        // groups ≥ chunk capacity whenever the table is big enough to have
        // full chunks, which pushes every full chunk into the radix path.
        let num_groups = (num_rows / group_divisor).max(1);
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Int),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for i in 0..num_rows {
            let key = ((i * key_stride) % num_groups) as i64;
            let y = ((i * 37) % 19) as f64 - 9.0;
            let x = vec![1.0, (i % 7) as f64 - 3.0, ((i * 13) % 11) as f64 * 0.5];
            table
                .insert(Row::new(vec![
                    Value::Int(key),
                    Value::Double(y),
                    Value::DoubleArray(x),
                ]))
                .unwrap();
        }
        let filter = filtered.then(|| Predicate::column_gt("y", 0.0));
        let mut grouped = Dataset::from_table(&table).group_by(["grp"]);
        if let Some(pred) = &filter {
            grouped = grouped.filter(pred.clone());
        }

        let count_c = grouped.aggregate_per_group(&CountAggregate).unwrap();
        let count_r = reference::aggregate_per_group(&grouped, &CountAggregate).unwrap();
        prop_assert_eq!(&count_c, &count_r);
        let sum_c = grouped.aggregate_per_group(&SumAggregate::new("y")).unwrap();
        let sum_r = reference::aggregate_per_group(&grouped, &SumAggregate::new("y")).unwrap();
        prop_assert_eq!(sum_c.len(), sum_r.len());
        for ((ka, va), (kb, vb)) in sum_c.iter().zip(&sum_r) {
            prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }

        // The linregr transition state — the accumulation the radix pass
        // batches through the tiled kernels — must match bit for bit.
        let scan = LinregrStateProbe(LinearRegression::new("y", "x"));
        let lin_c = grouped.aggregate_per_group(&scan).unwrap();
        let lin_r = reference::aggregate_per_group(&grouped, &scan).unwrap();
        prop_assert_eq!(lin_c.len(), lin_r.len());
        for ((ka, sa), (kb, sb)) in lin_c.iter().zip(&lin_r) {
            prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(sa, sb);
        }
    }

    /// Sketch adapters: the chunked text-column fast paths must produce
    /// exactly the states the per-row reference produces, including under
    /// filters and NULLs.
    #[test]
    fn sketch_adapters_chunked_equals_per_row(
        words in prop::collection::vec(0usize..40, 1..200),
        segments in 1usize..6,
        chunk_capacity in 1usize..30,
        null_every_raw in 0usize..5,
        filtered in any::<bool>(),
    ) {
        let null_every = (null_every_raw >= 2).then_some(null_every_raw);
        let schema = Schema::new(vec![
            Column::new("word", ColumnType::Text),
            Column::new("score", ColumnType::Double),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (i, w) in words.iter().enumerate() {
            if null_every.is_some_and(|n| i % n == 0) {
                table.insert(Row::new(vec![Value::Null, Value::Null])).unwrap();
            } else {
                table.insert(row![format!("w{w}"), i as f64]).unwrap();
            }
        }
        let mut ds = Dataset::from_table(&table);
        if filtered {
            ds = ds.filter(Predicate::column_lt("score", words.len() as f64 / 2.0));
        }

        let fm = FmDistinctAggregate::new("word");
        let a = ds.aggregate(&fm).unwrap();
        let b = reference::aggregate(&ds, &fm).unwrap();
        prop_assert_eq!(a.to_bits(), b.to_bits());

        let mfv = MostFrequentValuesAggregate::new("word", 50);
        let a = ds.aggregate(&mfv).unwrap();
        let b = reference::aggregate(&ds, &mfv).unwrap();
        prop_assert_eq!(a, b);

        let summary = SummaryAggregate::new("score");
        let a = ds.aggregate(&summary).unwrap();
        let b = reference::aggregate(&ds, &summary).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Chunks alternating between low and high cardinality interleave the
    /// direct-gather path with radix staging; the staged buckets must flush
    /// before any later direct transition of the same groups, or a group
    /// would see its rows out of order.  This pins the exact interleavings:
    /// single-key chunks, radix chunks sharing keys with earlier direct
    /// chunks, direct chunks over keys with staged rows, and a trailing
    /// partial chunk of brand-new keys.
    #[test]
    fn radix_staging_interleaves_with_direct_chunks_bit_identically(
        filtered in any::<bool>(),
    ) {
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Int),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        // One segment with 64-row chunks, so the block structure below maps
        // one block to one chunk exactly.
        let mut table = Table::new(schema, 1)
            .unwrap()
            .with_chunk_capacity(64)
            .unwrap();
        let key_of = |block: usize, i: usize| -> i64 {
            match block {
                0 => 0,                  // single-key chunk (direct)
                1 => i as i64,           // 64 distinct keys incl. 0 (radix)
                2 => 1,                  // single-key chunk over a staged key
                3 => 32 + i as i64,      // radix again, half old half new keys
                4 => 32 + (i % 16) as i64, // 16 staged keys × 4 rows (direct)
                _ => 100 + i as i64,     // trailing partial chunk, new keys
            }
        };
        let mut row_idx = 0usize;
        for block in 0..6 {
            let rows = if block == 5 { 10 } else { 64 };
            for i in 0..rows {
                let y = ((row_idx * 29) % 13) as f64 - 6.0;
                let x = vec![1.0, (row_idx % 5) as f64 - 2.0, ((row_idx * 7) % 9) as f64];
                table
                    .insert(Row::new(vec![
                        Value::Int(key_of(block, i)),
                        Value::Double(y),
                        Value::DoubleArray(x),
                    ]))
                    .unwrap();
                row_idx += 1;
            }
        }
        let mut grouped = Dataset::from_table(&table).group_by(["grp"]);
        if filtered {
            grouped = grouped.filter(Predicate::column_gt("y", 0.0));
        }

        let scan = LinregrStateProbe(LinearRegression::new("y", "x"));
        let lin_c = grouped.aggregate_per_group(&scan).unwrap();
        let lin_r = reference::aggregate_per_group(&grouped, &scan).unwrap();
        prop_assert_eq!(lin_c.len(), lin_r.len());
        for ((ka, sa), (kb, sb)) in lin_c.iter().zip(&lin_r) {
            prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(sa, sb);
        }
        let sum_c = grouped.aggregate_per_group(&SumAggregate::new("y")).unwrap();
        let sum_r = reference::aggregate_per_group(&grouped, &SumAggregate::new("y")).unwrap();
        prop_assert_eq!(sum_c.len(), sum_r.len());
        for ((ka, va), (kb, vb)) in sum_c.iter().zip(&sum_r) {
            prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    /// Empty segments (more segments than rows, including entirely empty
    /// tables) must behave identically in the scan and the reference.
    /// (Estimator fits over such tables are the conformance kit's.)
    #[test]
    fn empty_segments_behave_identically(
        rows in 0usize..4,
        segments in 5usize..9,
    ) {
        let points: Vec<(f64, [f64; 3])> =
            (0..rows).map(|i| (i as f64, [1.0, i as f64, 0.5])).collect();
        let table = labeled_table(&points, None, segments, 8);
        let ds = Dataset::from_table(&table);

        let sum_c = ds.aggregate(&SumAggregate::new("y")).unwrap();
        let sum_r = reference::aggregate(&ds, &SumAggregate::new("y")).unwrap();
        prop_assert_eq!(sum_c.to_bits(), sum_r.to_bits());
    }

    /// Apriori over mostly-empty tables: more segments than rows (empty
    /// segments on every scan) mine what the same rows in one segment do.
    #[test]
    fn apriori_empty_segments_behave_identically(
        rows in 0usize..4,
        segments in 5usize..9,
    ) {
        use madlib::methods::assoc::Apriori;

        let schema = Schema::new(vec![
            Column::new("tid", ColumnType::Int),
            Column::new("items", ColumnType::TextArray),
        ]);
        let mut table = Table::new(schema, segments).unwrap();
        for i in 0..rows {
            table
                .insert(Row::new(vec![
                    Value::Int(i as i64),
                    Value::TextArray(vec!["a".to_owned(), format!("b{}", i % 2)]),
                ]))
                .unwrap();
        }
        let apriori = Apriori::new("items", 0.4, 0.5).unwrap();
        let a = apriori.fit(&Dataset::from_table(&table));
        let b = apriori.fit(&Dataset::from_table(&table.repartition(1).unwrap()));
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(_), Err(_)) => {} // the zero-row case errors under both layouts
            (a, b) => prop_assert!(false, "paths disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}

/// The low-rank triple loader's chunk fast path (contiguous bigint/bigint/
/// double buffers) and its per-row fallback (taken e.g. when the rating
/// column stores integers) must produce the same triples — and hence, with a
/// fixed seed, the same model.  NULL-bearing id rows are a typed error.
#[test]
fn lowrank_loading_paths_agree() {
    use madlib::methods::factor::LowRankFactorization;

    let double_schema = Schema::new(vec![
        Column::new("user_id", ColumnType::Int),
        Column::new("item_id", ColumnType::Int),
        Column::new("rating", ColumnType::Double),
    ]);
    let int_schema = Schema::new(vec![
        Column::new("user_id", ColumnType::Int),
        Column::new("item_id", ColumnType::Int),
        Column::new("rating", ColumnType::Int),
    ]);
    let mut fast = Table::new(double_schema.clone(), 3).unwrap();
    let mut fallback = Table::new(int_schema, 3).unwrap();
    for i in 0..40i64 {
        let (u, it, r) = (i % 5, i % 7, (i % 3) - 1);
        fast.insert(Row::new(vec![
            Value::Int(u),
            Value::Int(it),
            Value::Double(r as f64),
        ]))
        .unwrap();
        fallback
            .insert(Row::new(vec![Value::Int(u), Value::Int(it), Value::Int(r)]))
            .unwrap();
    }
    let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 2)
        .unwrap()
        .with_epochs(4)
        .with_seed(11);
    let a = estimator.fit(&Dataset::from_table(&fast)).unwrap();
    let b = estimator.fit(&Dataset::from_table(&fallback)).unwrap();
    assert_eq!(a, b, "fast-path and fallback loading diverged");

    // NULL ids are a typed error, not a panic.
    let mut nulls = Table::new(double_schema, 2).unwrap();
    nulls
        .insert(Row::new(vec![
            Value::Null,
            Value::Int(0),
            Value::Double(1.0),
        ]))
        .unwrap();
    assert!(estimator.fit(&Dataset::from_table(&nulls)).is_err());
}

// ---------------------------------------------------------------------------
// Work stealing.  Aggregates steal whole segments: workers claim segments
// from a shared cursor, each segment's chunks stream through one state, and
// the per-segment states merge with `Aggregate::merge` in segment order.
// Order-preserving terminals steal chunk ranges and concatenate.  The units
// are a pure function of the table and never of the worker count, so
// parallel and serial execution fold the *same* states in the *same* order —
// bit-identical on arbitrary floating-point data.
// ---------------------------------------------------------------------------

proptest! {
    /// Parallel ≡ serial execution, bit for bit, on arbitrary float data —
    /// ungrouped and grouped aggregates.  (Every estimator's fits under the
    /// two executors are the conformance kit's `parallel_equals_serial`.)
    #[test]
    fn parallel_equals_serial_bitwise(
        points in prop::collection::vec((0usize..5, -10.0..10.0f64, [-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64]), 1..180),
        segments in 1usize..5,
        chunk_capacity in 1usize..8,
    ) {
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Int),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (key, y, x) in &points {
            table
                .insert(Row::new(vec![
                    Value::Int(*key as i64),
                    Value::Double(*y),
                    Value::DoubleArray(x.to_vec()),
                ]))
                .unwrap();
        }
        let par = Executor::new();
        let ser = Executor::serial();

        let sum_p = dataset(&table, &par).aggregate(&SumAggregate::new("y")).unwrap();
        let sum_s = dataset(&table, &ser).aggregate(&SumAggregate::new("y")).unwrap();
        prop_assert_eq!(sum_p.to_bits(), sum_s.to_bits());
        let avg_p = dataset(&table, &par).aggregate(&AvgAggregate::new("y")).unwrap();
        let avg_s = dataset(&table, &ser).aggregate(&AvgAggregate::new("y")).unwrap();
        prop_assert_eq!(avg_p.map(f64::to_bits), avg_s.map(f64::to_bits));

        let grouped_sum = |exec: &Executor| {
            dataset(&table, exec)
                .group_by(["grp"])
                .aggregate_per_group(&SumAggregate::new("y"))
                .unwrap()
        };
        let gp = grouped_sum(&par);
        let gs = grouped_sum(&ser);
        prop_assert_eq!(gp.len(), gs.len());
        for ((ka, va), (kb, vb)) in gp.iter().zip(&gs) {
            prop_assert!(ka == kb, "keys diverge: {:?} vs {:?}", ka, kb);
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }

        let scan = LinregrStateProbe(LinearRegression::new("y", "x"));
        let states = |exec: &Executor| dataset(&table, exec).aggregate(&scan).unwrap();
        prop_assert_eq!(states(&par), states(&ser));
    }

    /// The segment scan equals the per-row reference exactly — values, group
    /// keys and key order — on integer-valued data, including the empty
    /// table, ungrouped as well as grouped.
    #[test]
    fn segment_scan_equals_reference_on_exact_data(
        num_rows in 0usize..200,
        num_groups in 1usize..9,
        segments in 1usize..5,
        chunk_capacity in 1usize..8,
        filtered in any::<bool>(),
    ) {
        let schema = Schema::new(vec![
            Column::new("grp", ColumnType::Int),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for i in 0..num_rows {
            table
                .insert(Row::new(vec![
                    Value::Int(((i * 7) % num_groups) as i64),
                    Value::Double(((i * 37) % 19) as f64 - 9.0),
                    Value::DoubleArray(vec![1.0, (i % 5) as f64 - 2.0, ((i * 11) % 7) as f64]),
                ]))
                .unwrap();
        }
        let filter = filtered.then(|| Predicate::column_gt("y", 0.0));
        let executor = Executor::new();
        let mut grouped = dataset(&table, &executor).group_by(["grp"]);
        if let Some(pred) = &filter {
            grouped = grouped.filter(pred.clone());
        }
        let scan = LinregrStateProbe(LinearRegression::new("y", "x"));
        let counts = grouped.aggregate_per_group(&CountAggregate).unwrap();
        let states = grouped.aggregate_per_group(&scan).unwrap();
        let sum = dataset(&table, &executor).aggregate(&SumAggregate::new("y")).unwrap();

        prop_assert_eq!(&reference::aggregate_per_group(&grouped, &CountAggregate).unwrap(), &counts);
        prop_assert_eq!(&reference::aggregate_per_group(&grouped, &scan).unwrap(), &states);
        let ungrouped = Dataset::from_table(&table);
        let reference_sum = reference::aggregate(&ungrouped, &SumAggregate::new("y")).unwrap();
        prop_assert_eq!(reference_sum.to_bits(), sum.to_bits());
    }

    /// `map_chunks` always steals chunk ranges; its concatenated
    /// output must be independent of parallelism and identical to the
    /// table's serial chunk layout.
    #[test]
    fn map_chunks_output_is_parallelism_invariant(
        num_rows in 0usize..150,
        segments in 1usize..6,
        chunk_capacity in 1usize..8,
    ) {
        let points: Vec<(f64, [f64; 3])> = (0..num_rows)
            .map(|i| (i as f64, [1.0, (i % 9) as f64, 0.25 * i as f64]))
            .collect();
        let table = labeled_table(&points, None, segments, chunk_capacity);
        let map = |exec: &Executor| {
            dataset(&table, exec)
                .map_chunks(|chunk, _schema| Ok(vec![chunk.len()]))
                .unwrap()
        };
        let par = map(&Executor::new());
        let ser = map(&Executor::serial());
        prop_assert_eq!(&par, &ser);
        prop_assert_eq!(par.iter().sum::<usize>(), num_rows);
        // Chunk sizes follow the serial insert layout: every chunk is full
        // except possibly the last chunk of each segment.
        prop_assert!(par.iter().all(|&len| len <= chunk_capacity));
    }
}
