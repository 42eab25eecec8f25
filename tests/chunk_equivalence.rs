//! Chunk-path ≡ row-reference properties.
//!
//! Every scan terminal runs chunk at a time, and every `transition_chunk`
//! override must produce exactly the state the per-row `transition` would,
//! floating-point accumulation order included.  The per-row meaning is
//! `madlib::engine::reference` (each row materialised, filtered and folded
//! with `transition`); these property tests hold the chunked terminals to it
//! bit for bit — linear regression, the built-in SQL aggregates, grouped
//! aggregation on both its gather and radix paths, and the sketch adapters —
//! over randomized data with NULL-bearing rows, ragged partitions, empty
//! segments, and chunk capacities small enough that every scan crosses
//! several chunk boundaries.  Aggregates private to a method crate are held
//! to their per-row fallback where they live (the IRLS and Lloyd steps in
//! `madlib-core`); here the IGD objectives are held to theirs chunk by chunk,
//! and whole iterative fits to the same fit over one-row chunks.

use madlib::convex::objective::sgd_epoch_chunk_by_rows;
use madlib::convex::objectives::{LeastSquaresObjective, LogisticObjective};
use madlib::convex::ConvexObjective;
use madlib::engine::aggregate::{Aggregate, AvgAggregate, CountAggregate, SumAggregate};
use madlib::engine::expr::Predicate;
use madlib::engine::{
    reference, row, Column, ColumnType, Database, Dataset, Executor, Row, Schema, Table, Value,
};
use madlib::linalg::array_ops::closest_column;
use madlib::methods::cluster::seeding::seed_centroids;
use madlib::methods::cluster::{KMeans, SeedingMethod};
use madlib::methods::datasets::labeled_point_schema;
use madlib::methods::regress::LinearRegression;
use madlib::methods::{Estimator, Session};
use madlib::sketch::{FmDistinctAggregate, MostFrequentValuesAggregate, SummaryAggregate};
use proptest::prelude::*;

/// A throwaway training session (single-pass estimators never touch its
/// database).
fn session() -> Session {
    Session::new(Database::new(1).unwrap())
}

/// Builds the dataset for one executor.
fn dataset<'a>(table: &'a Table, executor: &Executor) -> Dataset<'a> {
    Dataset::from_table(table).with_executor(*executor)
}

/// `table`'s rows in the same segments and order, one row per chunk: every
/// kernel of a scan over it sees a single row, so a fit over it is the fit
/// whose every step runs the per-row shape of its kernels.
fn one_row_per_chunk(table: &Table) -> Table {
    let mut out = Table::new(table.schema().clone(), table.num_segments())
        .unwrap()
        .with_chunk_capacity(1)
        .unwrap();
    for seg in 0..table.num_segments() {
        for row in table.segment(seg).iter() {
            out.insert_into_segment(seg, row).unwrap();
        }
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
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
    /// Linear regression: the flagship Figure 4 aggregate.  The chunked
    /// transition (tiled rank-k XᵀX, batched Xᵀy) must reproduce the per-row
    /// reference fit bit for bit, across ragged segment sizes and chunk
    /// boundaries.
    #[test]
    fn linregr_chunk_path_is_bit_identical(
        points in prop::collection::vec((-10.0..10.0f64, [-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64]), 1..120),
        segments in 1usize..7,
        chunk_capacity in 1usize..40,
    ) {
        let table = labeled_table(&points, None, segments, chunk_capacity);
        let ds = Dataset::from_table(&table);
        let a = LinearRegression::new("y", "x").fit(&ds, &session()).unwrap();
        let b = reference::aggregate(&ds, &LinearRegression::new("y", "x")).unwrap();
        prop_assert_eq!(bits(&a.coef), bits(&b.coef));
        prop_assert_eq!(a.r2.to_bits(), b.r2.to_bits());
        prop_assert_eq!(bits(&a.std_err), bits(&b.std_err));
        prop_assert_eq!(bits(&a.t_stats), bits(&b.t_stats));
        prop_assert_eq!(a.num_rows, b.num_rows);
    }

    /// NULL-bearing rows: the fit and the reference must both reject them
    /// (the reference fails on the first NULL; the chunk path falls back and
    /// reproduces it), and the built-in NULL-skipping aggregates must agree
    /// bit for bit.
    #[test]
    fn null_rows_behave_identically(
        points in prop::collection::vec((-10.0..10.0f64, [-5.0..5.0f64, -5.0..5.0f64, -5.0..5.0f64]), 2..60),
        null_every in 2usize..6,
        segments in 1usize..5,
        chunk_capacity in 1usize..20,
    ) {
        let table = labeled_table(&points, Some(null_every), segments, chunk_capacity);
        let ds = Dataset::from_table(&table);

        // Regression input with NULLs errors on both.
        prop_assert!(LinearRegression::new("y", "x").fit(&ds, &session()).is_err());
        prop_assert!(reference::aggregate(&ds, &LinearRegression::new("y", "x")).is_err());

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

    /// k-means: the fit over `chunk_capacity`-row chunks is the fit over the
    /// same rows held one per chunk, where every seeding, Lloyd and inertia
    /// kernel sees a single row — so no step's result depends on how many
    /// rows a kernel batches.  (The Lloyd step's chunk kernel is held to its
    /// per-row `transition` in `madlib-core`'s `cluster::kmeans` tests.)
    #[test]
    fn kmeans_chunk_path_is_bit_identical(
        points in prop::collection::vec([-20.0..20.0f64, -20.0..20.0f64], 8..100),
        k in 1usize..5,
        segments in 1usize..5,
        chunk_capacity in 1usize..30,
        seed in 0u64..1000,
    ) {
        prop_assume!(points.len() >= k);
        let schema = madlib::methods::datasets::points_schema();
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (i, p) in points.iter().enumerate() {
            table.insert(row![i as i64, p.to_vec()]).unwrap();
        }
        let db = Database::new(segments).unwrap();
        let fit = |table: &Table| {
            Session::new(db.clone())
                .train(
                    &KMeans::new("coords", k)
                        .unwrap()
                        .with_seed(seed)
                        .with_max_iterations(15),
                    &Dataset::from_table(table),
                )
                .unwrap()
        };
        let a = fit(&table);
        let b = fit(&one_row_per_chunk(&table));
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.converged, b.converged);
        for (ca, cb) in a.centroids.iter().zip(&b.centroids) {
            prop_assert_eq!(bits(ca), bits(cb));
        }
        prop_assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
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
        let db = Database::new(segments).unwrap();
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
                .fit(&serial, &Session::new(db.clone()))
                .unwrap();
            let inertia: f64 = materialized
                .iter()
                .map(|p| closest_column(&lloyd.centroids, p).unwrap().1)
                .collect::<Vec<f64>>()
                .iter()
                .sum();

            for exec in [Executor::new(), Executor::serial()] {
                let fitted = estimator.fit(&bind(exec), &Session::new(db.clone())).unwrap();
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
        let schema = table.schema();
        let least_squares = LeastSquaresObjective::new("y", "x", 3);
        let logistic = LogisticObjective::new("y", "x", 3);
        for objective in [&least_squares as &dyn ConvexObjective, &logistic] {
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

        let lin_c = LinearRegression::new("y", "x").fit(&ds, &session());
        let lin_r = reference::aggregate(&ds, &LinearRegression::new("y", "x"));
        match (lin_c, lin_r) {
            (Ok(a), Ok(b)) => prop_assert_eq!(bits(&a.coef), bits(&b.coef)),
            (Err(_), Err(_)) => {} // empty input errors on both paths
            (a, b) => prop_assert!(false, "paths disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}

// ---------------------------------------------------------------------------
// PR 5 ports: the Apriori support-counting aggregates gained transition_chunk
// overrides over the flattened text[] buffers (held to their per-row
// fallback in `madlib-core`'s `assoc::apriori` tests), and low-rank
// factorization / LDA load their inputs through chunk-level column access
// with a per-row fallback.  Chunk layout and segment count must not change
// a mined model — including on NULL-bearing and empty-segment inputs — and
// the fallback loading paths must agree with the fast paths.
// ---------------------------------------------------------------------------

proptest! {
    /// Apriori's two UDAs (level-1 item counts and level-k candidate
    /// supports) mine the same model — itemsets, counts, rules — from chunks
    /// of `chunk_capacity` rows as from one-row chunks, and NULL-bearing item
    /// rows error on both.
    #[test]
    fn apriori_chunk_path_is_bit_identical(
        baskets in prop::collection::vec(prop::collection::vec(0usize..8, 0..6), 0..50),
        null_every_raw in 0usize..5,
        segments in 1usize..6,
        chunk_capacity in 1usize..16,
    ) {
        use madlib::methods::assoc::Apriori;

        let null_every = (null_every_raw >= 2).then_some(null_every_raw);
        let schema = Schema::new(vec![
            Column::new("tid", ColumnType::Int),
            Column::new("items", ColumnType::TextArray),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (i, basket) in baskets.iter().enumerate() {
            let items = if null_every.is_some_and(|n| i % n == 0) {
                Value::Null
            } else {
                Value::TextArray(basket.iter().map(|b| format!("item_{b}")).collect())
            };
            table.insert(Row::new(vec![Value::Int(i as i64), items])).unwrap();
        }

        let apriori = Apriori::new("items", 0.25, 0.5).unwrap().with_max_itemset_size(3);
        let a = apriori.fit(&Dataset::from_table(&table), &session());
        let b = apriori.fit(&Dataset::from_table(&one_row_per_chunk(&table)), &session());
        match (a, b) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            // NULL-bearing items and empty inputs error under both layouts.
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "paths disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
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
        let a = apriori.fit(&Dataset::from_table(&table), &session());
        let b = apriori.fit(&Dataset::from_table(&table.repartition(1).unwrap()), &session());
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
    let a = estimator
        .fit(&Dataset::from_table(&fast), &session())
        .unwrap();
    let b = estimator
        .fit(&Dataset::from_table(&fallback), &session())
        .unwrap();
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
    assert!(estimator
        .fit(&Dataset::from_table(&nulls), &session())
        .is_err());
}

/// LDA's corpus loader: NULL-bearing token rows are a typed error, and
/// chunk-boundary layout (tiny chunk capacity) does not change the fitted
/// model.
#[test]
fn lda_loading_is_layout_invariant_and_rejects_nulls() {
    use madlib::methods::topic::Lda;

    let schema = Schema::new(vec![
        Column::new("doc", ColumnType::Int),
        Column::new("tokens", ColumnType::TextArray),
    ]);
    let mut wide = Table::new(schema.clone(), 2).unwrap();
    let mut narrow = Table::new(schema.clone(), 2)
        .unwrap()
        .with_chunk_capacity(1)
        .unwrap();
    for i in 0..20i64 {
        let tokens: Vec<String> = (0..4).map(|t| format!("w{}", (i + t) % 6)).collect();
        let row = Row::new(vec![Value::Int(i), Value::TextArray(tokens)]);
        wide.insert(row.clone()).unwrap();
        narrow.insert(row).unwrap();
    }
    let estimator = Lda::new("tokens", 2)
        .unwrap()
        .with_iterations(5)
        .with_seed(2);
    let a = estimator
        .fit(&Dataset::from_table(&wide), &session())
        .unwrap();
    let b = estimator
        .fit(&Dataset::from_table(&narrow), &session())
        .unwrap();
    assert_eq!(a, b, "chunk layout changed the fitted LDA model");

    let mut nulls = Table::new(schema, 2).unwrap();
    nulls
        .insert(Row::new(vec![Value::Int(0), Value::Null]))
        .unwrap();
    assert!(estimator
        .fit(&Dataset::from_table(&nulls), &session())
        .is_err());
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
    /// ungrouped aggregates, grouped aggregates, and a full
    /// linear-regression fit.
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

        let sum_p = par.aggregate(&table, &SumAggregate::new("y")).unwrap();
        let sum_s = ser.aggregate(&table, &SumAggregate::new("y")).unwrap();
        prop_assert_eq!(sum_p.to_bits(), sum_s.to_bits());
        let avg_p = par.aggregate(&table, &AvgAggregate::new("y")).unwrap();
        let avg_s = ser.aggregate(&table, &AvgAggregate::new("y")).unwrap();
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

        let fit = |exec: &Executor| {
            LinearRegression::new("y", "x").fit(&dataset(&table, exec), &session())
        };
        match (fit(&par), fit(&ser)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(bits(&a.coef), bits(&b.coef));
                prop_assert_eq!(a.r2.to_bits(), b.r2.to_bits());
            }
            (Err(_), Err(_)) => {} // singular tiny inputs fail on both
            (a, b) => prop_assert!(false, "paths disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
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
        let sum = executor.aggregate(&table, &SumAggregate::new("y")).unwrap();

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

/// Every `Estimator` impl in the workspace rejects an empty dataset with a
/// typed `MethodError` instead of panicking — the uniform calling convention
/// must fail uniformly too.  (`Profiler` is the deliberate exception: a
/// profile of zero rows is well-defined and reports zero counts.)
#[test]
fn every_estimator_rejects_empty_datasets() {
    use madlib::convex::objectives::LeastSquaresObjective as LsObjective;
    use madlib::convex::IgdEstimator;
    use madlib::methods::assoc::Apriori;
    use madlib::methods::classify::{DecisionTree, LinearSvm, NaiveBayes};
    use madlib::methods::factor::LowRankFactorization;
    use madlib::methods::topic::Lda;
    use madlib::sketch::Profiler;
    use madlib::text::CrfEstimator;

    fn assert_rejects_empty<E>(name: &str, estimator: &E, columns: Vec<Column>)
    where
        E: Estimator,
    {
        let table = Table::new(Schema::new(columns), 3).unwrap();
        let result = estimator.fit(&Dataset::from_table(&table), &session());
        assert!(result.is_err(), "{name} accepted an empty dataset");
    }

    let labeled = || {
        vec![
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]
    };
    let classed = || {
        vec![
            Column::new("label", ColumnType::Text),
            Column::new("x", ColumnType::DoubleArray),
        ]
    };

    assert_rejects_empty("linregr", &LinearRegression::new("y", "x"), labeled());
    assert_rejects_empty(
        "logregr",
        &madlib::methods::regress::LogisticRegression::new("y", "x"),
        labeled(),
    );
    assert_rejects_empty("kmeans", &KMeans::new("x", 2).unwrap(), labeled());
    assert_rejects_empty("naive_bayes", &NaiveBayes::new("label", "x"), classed());
    assert_rejects_empty("decision_tree", &DecisionTree::new("label", "x"), classed());
    assert_rejects_empty("svm", &LinearSvm::new("y", "x"), labeled());
    assert_rejects_empty(
        "igd",
        &IgdEstimator::new(LsObjective::new("y", "x", 2)),
        labeled(),
    );
    assert_rejects_empty(
        "lowrank",
        &LowRankFactorization::new("user_id", "item_id", "rating", 2).unwrap(),
        vec![
            Column::new("user_id", ColumnType::Int),
            Column::new("item_id", ColumnType::Int),
            Column::new("rating", ColumnType::Double),
        ],
    );
    assert_rejects_empty(
        "lda",
        &Lda::new("tokens", 2).unwrap(),
        vec![Column::new("tokens", ColumnType::TextArray)],
    );
    assert_rejects_empty(
        "apriori",
        &Apriori::new("items", 0.5, 0.5).unwrap(),
        vec![Column::new("items", ColumnType::TextArray)],
    );
    assert_rejects_empty(
        "crf",
        &CrfEstimator::new("observations", "labels", 2, 4),
        vec![
            Column::new("observations", ColumnType::IntArray),
            Column::new("labels", ColumnType::IntArray),
        ],
    );

    // The documented exception: profiling an empty dataset succeeds with
    // zero counts (a profile is a description, not a fitted model).
    let empty = Table::new(Schema::new(labeled()), 3).unwrap();
    let profile = Profiler
        .fit(&Dataset::from_table(&empty), &session())
        .unwrap();
    assert_eq!(profile.row_count, 0);
}
