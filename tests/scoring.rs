//! Serving-subsystem equivalence properties.
//!
//! `Dataset::score` promises that running prediction as a chunked,
//! work-stealing scan pass — vectorized `predict_batch` overrides riding the
//! batched kernel tiers — is **bit-identical** to the naive per-row
//! `predict` loop, with parallel workers and on the calling thread, on every
//! `MADLIB_SIMD` tier (CI re-runs this suite with `MADLIB_SIMD=off
//! MADLIB_THREADS=1`), over NULL-bearing and empty chunks, and filtered
//! scans.  Every trained predictor against its per-row plan, ungrouped and
//! routed per group, is the conformance kit's `score_equals_per_row_predict`
//! (`tests/conformance.rs`); these tests hold the serving terminals
//! themselves to it — any coefficients, routing against filter-then-score,
//! compacted batches, the `FeatureScorer` fallback shapes, the
//! prediction-count check, `score_into` — plus the catalog's typed error
//! surface and the k-NN terminal's tie determinism.

use madlib::engine::aggregate::CountAggregate;
use madlib::engine::expr::Predicate;
use madlib::engine::{
    reference, Column, ColumnType, Database, Dataset, EngineError, Executor, GroupKey,
    GroupedModels, Row, RowChunk, Schema, Scorer, Similarity, Table, Value,
};
use madlib::methods::cluster::KMeansModel;
use madlib::methods::regress::LinearRegressionModel;
use madlib::methods::{FeatureScorer, Predictor, Session};
use proptest::prelude::*;

/// Bit-exact prediction equality: `Double`s, alone or in an array, compare
/// by bits (so NaN == NaN and -0.0 != 0.0), everything else by value.
fn assert_predictions_eq(got: &[Value], want: &[Value], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let same = match (g, w) {
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::DoubleArray(a), Value::DoubleArray(b)) => a
                .iter()
                .map(|v| v.to_bits())
                .eq(b.iter().map(|v| v.to_bits())),
            (a, b) => a == b,
        };
        assert!(same, "{context}: row {i}: got {g:?}, want {w:?}");
    }
}

fn linregr_model(coef: Vec<f64>) -> LinearRegressionModel {
    LinearRegressionModel {
        coef,
        r2: 0.0,
        std_err: Vec::new(),
        t_stats: Vec::new(),
        p_values: Vec::new(),
        condition_no: 0.0,
        num_rows: 0,
    }
}

/// Builds a `y (double) | x (double[], nullable)` table.
fn feature_table(
    points: &[(f64, Vec<f64>)],
    null_every: Option<usize>,
    segments: usize,
    chunk_capacity: usize,
) -> Table {
    let schema = Schema::new(vec![
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table = Table::new(schema, segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for (i, (y, x)) in points.iter().enumerate() {
        let features = if null_every.is_some_and(|n| i % n == 0) {
            Value::Null
        } else {
            Value::DoubleArray(x.clone())
        };
        table
            .insert(Row::new(vec![Value::Double(*y), features]))
            .unwrap();
    }
    table
}

/// The naive serving plan `Dataset::score` must reproduce bit-for-bit: walk
/// the filter-surviving rows in segment order and call the model's typed
/// per-row predict, NULL features scoring to NULL.
fn per_row_reference<P: Predictor>(dataset: &Dataset, model: &P) -> Vec<Value> {
    dataset
        .map_rows(|row, schema| {
            let value = row.get_named(schema, "x")?;
            if value.is_null() {
                return Ok(Value::Null);
            }
            model
                .predict_value(value.as_double_array()?)
                .map_err(madlib::engine::EngineError::invalid)
        })
        .unwrap()
}

/// The parallel and the serial executor: every serving terminal must return
/// the same bits under both.
fn both_executors() -> [Executor; 2] {
    [Executor::new(), Executor::serial()]
}

/// The naive plan `top_k_by_score` must reproduce, rows and score bits: score
/// the surviving non-NULL rows of column 1 in scan order with the per-row
/// formulation and stable-sort by score, so ties keep scan order.
fn brute_force_top_k(
    dataset: &Dataset,
    query: &[f64],
    k: usize,
    metric: Similarity,
) -> Vec<(Row, f64)> {
    let mut reference: Vec<(Row, f64)> = Vec::new();
    for row in dataset.collect_rows().unwrap() {
        let value = row.get(1);
        if value.is_null() {
            continue;
        }
        let x = value.as_double_array().unwrap();
        let score: f64 = match metric {
            Similarity::Dot => x.iter().zip(query).map(|(a, b)| a * b).sum(),
            Similarity::Euclidean => x
                .iter()
                .zip(query)
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum(),
        };
        reference.push((row, score));
    }
    match metric {
        Similarity::Dot => reference.sort_by(|a, b| b.1.total_cmp(&a.1)),
        Similarity::Euclidean => reference.sort_by(|a, b| a.1.total_cmp(&b.1)),
    }
    reference.truncate(k);
    reference
}

proptest! {
    /// `Dataset::score` ≡ per-row predict, bit for bit, for any coefficients
    /// (not only fitted ones): linear regression's `batch_dot` override,
    /// under both executors, ragged segment layouts, tiny chunks,
    /// NULL-bearing rows and filters.
    #[test]
    fn score_matches_per_row_predict(
        points in prop::collection::vec(
            (-100.0f64..100.0, prop::collection::vec(-10.0f64..10.0, 3)),
            1..120,
        ),
        coef in prop::collection::vec(-5.0f64..5.0, 3),
        segments in 1usize..5,
        chunk_capacity in prop_oneof![Just(4usize), Just(16usize), Just(1024usize)],
        null_every_raw in 0usize..8,
        with_filter in any::<bool>(),
    ) {
        let null_every = (null_every_raw > 0).then_some(null_every_raw);
        let table = feature_table(&points, null_every, segments, chunk_capacity);
        let model = linregr_model(coef);
        for executor in both_executors() {
            let mut dataset = Dataset::from_table(&table).with_executor(executor);
            if with_filter {
                dataset = dataset.filter(Predicate::column_gt("y", 0.0));
            }
            let scored = dataset.score(&FeatureScorer::new(&model, "x")).unwrap();
            assert_predictions_eq(&scored, &per_row_reference(&dataset, &model), "linregr");
        }
    }

    /// Catalog-routed scoring ≡ filtering each group out with
    /// `Predicate::column_is_key` and scoring it with its own model: the
    /// predictions land at the group's rows with the same bits, over a
    /// double key whose NULL, NaN, `-0.0` and `0.0` are each their own group.
    #[test]
    fn grouped_scoring_matches_filtered_runs(
        points in prop::collection::vec(
            (0usize..5, prop::collection::vec(-10.0f64..10.0, 2)),
            1..100,
        ),
        segments in 1usize..4,
        chunk_capacity in prop_oneof![Just(4usize), Just(16usize), Just(1024usize)],
    ) {
        let keys = [f64::NAN, -0.0, 0.0, 1.5].map(Value::Double);
        let keys: Vec<Value> = std::iter::once(Value::Null).chain(keys).collect();
        let schema = Schema::new(vec![
            Column::new("k", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let rows = points.iter().map(|(key, x)| {
            Row::new(vec![keys[*key].clone(), Value::DoubleArray(x.clone())])
        });
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        table.insert_all(rows).unwrap();
        // One distinct linregr model per possible key.
        let registry: Vec<(GroupKey, LinearRegressionModel)> = (keys.iter().enumerate())
            .map(|(i, key)| {
                let coef = vec![1.0 + i as f64, -0.5 * i as f64];
                (GroupKey::from_value(key), linregr_model(coef))
            })
            .collect();
        let scorers = registry
            .iter()
            .map(|(key, model)| (key.clone(), FeatureScorer::new(model, "x")));
        let scorers = GroupedModels::new(scorers.collect()).unwrap();
        for executor in both_executors() {
            let dataset = Dataset::from_table(&table).with_executor(executor);
            let routed = dataset.clone().group_by(["k"]);
            let scored = routed.score_per_group("per_key", &scorers).unwrap();
            prop_assert_eq!(scored.len(), points.len());
            let row_keys = dataset.map_rows(|row, _| Ok(GroupKey::from_value(row.get(0))));
            let row_keys = row_keys.unwrap();
            for (key, model) in &registry {
                let alone = dataset.clone().filter(Predicate::column_is_key("k", key.clone()));
                let alone = alone.score(&FeatureScorer::new(model, "x")).unwrap();
                let routed: Vec<Value> = (row_keys.iter().zip(&scored))
                    .filter(|(k, _)| *k == key)
                    .map(|(_, value)| value.clone())
                    .collect();
                assert_predictions_eq(&routed, &alone, "grouped routing");
            }
        }
    }

    /// `top_k_by_score` is deterministic and thread-independent: both
    /// executors return the same rows and bit-identical scores, matching a
    /// naive sort of the per-row reference scores under both metrics.
    /// Chunks of one and two rows cut every segment into many chunk-range
    /// units, and `tied` rounds features and query to integers in -3..=3,
    /// so equal scores fall in different units and the scan position alone
    /// decides between them.
    #[test]
    fn top_k_matches_naive_sort(
        points in prop::collection::vec(
            (-100.0f64..100.0, prop::collection::vec(-10.0f64..10.0, 4)),
            1..80,
        ),
        query in prop::collection::vec(-10.0f64..10.0, 4),
        (k, with_filter, tied) in (1usize..12, any::<bool>(), any::<bool>()),
        segments in 1usize..4,
        chunk_capacity in prop_oneof![Just(1usize), Just(2usize), Just(4usize), Just(1024usize)],
        null_every_raw in 0usize..6,
    ) {
        let narrow = |xs: &[f64]| -> Vec<f64> {
            xs.iter().map(|x| if tied { (x / 3.5).round() } else { *x }).collect()
        };
        let points: Vec<(f64, Vec<f64>)> = points.iter().map(|(y, x)| (*y, narrow(x))).collect();
        let query = narrow(&query);
        let null_every = (null_every_raw > 1).then_some(null_every_raw);
        let table = feature_table(&points, null_every, segments, chunk_capacity);
        for metric in [Similarity::Dot, Similarity::Euclidean] {
            let mut results = Vec::new();
            for executor in both_executors() {
                let mut dataset = Dataset::from_table(&table).with_executor(executor);
                if with_filter {
                    dataset = dataset.filter(Predicate::column_gt("y", 0.0));
                }
                let top = dataset.top_k_by_score("x", &query, k, metric).unwrap();
                let reference = brute_force_top_k(&dataset, &query, k, metric);
                prop_assert_eq!(top.len(), reference.len());
                for ((row, score), (want_row, want_score)) in top.iter().zip(&reference) {
                    prop_assert_eq!(score.to_bits(), want_score.to_bits());
                    prop_assert_eq!(row, want_row);
                }
                results.push(top);
            }
            // Parallel ≡ serial, rows and bits.
            let (a, b) = (&results[0], &results[1]);
            prop_assert_eq!(a.len(), b.len());
            for ((ra, sa), (rb, sb)) in a.iter().zip(b) {
                prop_assert_eq!(ra, rb);
                prop_assert_eq!(sa.to_bits(), sb.to_bits());
            }
        }
    }
}

/// The row reductions under `score` and `top_k_by_score` read a batch as
/// eight runs of `rows / 8` plus a remainder, and top-k turns a row away on
/// one comparison once its list is full.  Filters that compact every
/// 1024-row chunk to 1–17 rows and to 1023 put batches of every small run
/// length, and one row short of a chunk, through both — over data with tied
/// scores, NaN and ±∞ scores and `k` beyond the surviving rows — and every
/// prediction, top-k row and score bit must be the per-row plan's.
#[test]
fn compacted_batches_score_and_rank_like_the_row_plan() {
    let (segments, capacity, width) = (2, 1024, 5);
    // `y` is the row's position in its chunk (rows go round-robin to the
    // segments), so `y < m` keeps the first `m` rows of every chunk.  Every
    // seventh vector repeats the one before it (tied scores); a few carry a
    // NaN or an infinity.
    let mut points: Vec<(f64, Vec<f64>)> = Vec::new();
    for i in 0..segments * (2 * capacity + 300) {
        let position = (i / segments) % capacity;
        let mut x: Vec<f64> = (0..width)
            .map(|j| ((i * 31 + j * 17) % 201) as f64 / 20.0 - 5.0)
            .collect();
        match i % 97 {
            13 => x[i % width] = f64::NAN,
            29 => x[i % width] = f64::INFINITY,
            53 => x[i % width] = f64::NEG_INFINITY,
            _ => {}
        }
        if i % 7 == 6 {
            x = points[i - 1].1.clone();
        }
        points.push((position as f64, x));
    }
    let table = feature_table(&points, None, segments, capacity);
    let model = linregr_model(vec![0.5, -1.25, 2.0, 0.125, -0.0]);
    let scorer = FeatureScorer::new(&model, "x");
    let query = [1.5, -0.25, 0.0, 3.0, -2.0];
    for kept in (1..=17).chain([1023]) {
        for executor in both_executors() {
            let dataset = Dataset::from_table(&table)
                .with_executor(executor)
                .filter(Predicate::column_lt("y", kept as f64));
            let context = format!("first {kept} rows of every chunk, {executor:?}");
            let scored = dataset.score(&scorer).unwrap();
            assert_eq!(scored.len(), segments * (2 * kept + kept.min(300)));
            assert_predictions_eq(&scored, &per_row_reference(&dataset, &model), &context);
            for metric in [Similarity::Dot, Similarity::Euclidean] {
                for k in [1, 5, 64, 10_000] {
                    let top = dataset.top_k_by_score("x", &query, k, metric).unwrap();
                    let reference = brute_force_top_k(&dataset, &query, k, metric);
                    let context = format!("{context} {metric:?} k={k}");
                    assert_eq!(top.len(), reference.len(), "{context}");
                    for (got, want) in top.iter().zip(&reference) {
                        assert_predictions_eq(got.0.values(), want.0.values(), &context);
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{context}");
                    }
                }
            }
        }
    }
}

/// `top_k_by_score_with_stats` counts what the pass did.  With scores
/// falling along every segment's scan order each chunk-range unit takes its
/// first `min(k, unit rows)` rows and turns every later one away; with
/// scores rising every row gets in; either way exactly `min(k, rows)` rows
/// are built, filtered or not.
#[test]
fn top_k_stats_count_offered_and_built_rows() {
    use madlib::engine::scan::{chunk_range_units, StealGranularity};

    let rows = 300;
    // Rows go round-robin to three segments of 100 rows: seven 16-row
    // chunks, two units (64 and 36 rows) each.
    let table_of = |sign: f64| {
        let points: Vec<(f64, Vec<f64>)> = (0..rows)
            .map(|i| (i as f64, vec![sign * i as f64, 1.0]))
            .collect();
        feature_table(&points, None, 3, 16)
    };
    let (falling, rising) = (table_of(-1.0), table_of(1.0));
    let unit_rows: Vec<usize> = chunk_range_units(&falling, StealGranularity::ChunkRange)
        .iter()
        .map(|unit| {
            let chunks = &falling.segment(unit.segment).chunks()[unit.chunk_lo..unit.chunk_hi];
            chunks.iter().map(|chunk| chunk.len()).sum()
        })
        .collect();
    assert_eq!(unit_rows, [64, 36, 64, 36, 64, 36]);
    let query = [1.0, 0.0];
    for executor in both_executors() {
        for k in [1, 5, 40, 500] {
            let context = format!("k={k} {executor:?}");
            let dataset = Dataset::from_table(&falling).with_executor(executor);
            let (top, stats) = dataset
                .top_k_by_score_with_stats("x", &query, k, Similarity::Dot)
                .unwrap();
            let offered: usize = unit_rows.iter().map(|&n| n.min(k)).sum();
            assert_eq!(stats.rows_offered, offered as u64, "{context}");
            assert_eq!(stats.rows_materialized, k.min(rows) as u64, "{context}");
            assert_eq!(top.len(), k.min(rows), "{context}");
            assert_eq!(stats.scan.rows_scanned, rows as u64, "{context}");
            assert_eq!(stats.scan.rows_aggregated, rows as u64, "{context}");
            assert_eq!(stats.scan.segments, 3, "{context}");
            assert!(stats.scan.busy_ns > 0, "{context}");
            let reference = brute_force_top_k(&dataset, &query, k, Similarity::Dot);
            assert_eq!(top, reference, "{context}");

            let dataset = Dataset::from_table(&rising).with_executor(executor);
            let (_, stats) = dataset
                .top_k_by_score_with_stats("x", &query, k, Similarity::Dot)
                .unwrap();
            assert_eq!(stats.rows_offered, rows as u64, "{context}");
            assert_eq!(stats.rows_materialized, k.min(rows) as u64, "{context}");

            // A filter compacts every chunk; the rows are found again
            // through its masks, and still only the returned ones are built.
            let filtered = dataset.filter(Predicate::column_lt("y", 100.0));
            let (top, stats) = filtered
                .top_k_by_score_with_stats("x", &query, k, Similarity::Dot)
                .unwrap();
            assert_eq!(stats.rows_materialized, k.min(100) as u64, "{context}");
            let reference = brute_force_top_k(&filtered, &query, k, Similarity::Dot);
            assert_eq!(top, reference, "{context}");
        }
    }
}

/// Empty datasets and fully-filtered scans score to empty prediction
/// vectors under both executors; scoring a grouped dataset without a
/// registry is a typed error.
#[test]
fn empty_and_grouped_edges() {
    let table = feature_table(&[], None, 3, 16);
    let model = linregr_model(vec![1.0, 2.0]);
    let scorer = FeatureScorer::new(&model, "x");
    for executor in both_executors() {
        let scored = Dataset::from_table(&table)
            .with_executor(executor)
            .score(&scorer)
            .unwrap();
        assert!(scored.is_empty());
    }
    let populated = feature_table(&[(1.0, vec![1.0, 2.0]), (2.0, vec![3.0, 4.0])], None, 2, 16);
    for executor in both_executors() {
        let scored = Dataset::from_table(&populated)
            .with_executor(executor)
            .filter(Predicate::column_gt("y", 100.0))
            .score(&scorer)
            .unwrap();
        assert!(scored.is_empty());
    }
    // Ungrouped serving terminals reject grouped datasets with guidance.
    let grouped = Dataset::from_table(&populated).group_by(["y"]);
    assert!(matches!(
        grouped.score(&scorer),
        Err(EngineError::InvalidArgument { message }) if message.contains("score_per_group")
    ));
    assert!(grouped
        .top_k_by_score("x", &[0.0, 0.0], 1, Similarity::Dot)
        .is_err());
}

/// The catalog's typed serving surface end to end: register by name, score
/// by name through the session, and surface `ModelNotFound` / wrong-type /
/// missing-group errors as typed values.
#[test]
fn catalog_routed_serving_and_errors() {
    let database = Database::new(2).unwrap();
    let session = Session::new(database.clone());
    let schema = Schema::new(vec![
        Column::new("region", ColumnType::Text),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    database.create_table("customers", schema).unwrap();
    database
        .with_table_mut("customers", |t| {
            for i in 0..40 {
                let region = if i % 2 == 0 { "north" } else { "south" };
                t.insert(Row::new(vec![
                    Value::Text(region.to_owned()),
                    Value::DoubleArray(vec![1.0, i as f64]),
                ]))?;
            }
            Ok(())
        })
        .unwrap();

    // Single model: register + score by name.
    let model = linregr_model(vec![2.0, 0.5]);
    session.register_model("churn", model.clone());
    let dataset = session.dataset("customers").unwrap();
    let scored = session
        .score::<LinearRegressionModel>(&dataset, "churn", "x")
        .unwrap();
    let reference = per_row_reference(&dataset, &model);
    assert_predictions_eq(&scored, &reference, "catalog single");

    // Grouped registry: one model per region, routed by the dataset's keys.
    let north = linregr_model(vec![1.0, 1.0]);
    let south = linregr_model(vec![-1.0, 0.25]);
    database.models().register_grouped(
        "churn_by_region",
        GroupedModels::new(vec![
            (
                GroupKey::from_value(&Value::Text("north".into())),
                north.clone(),
            ),
            (
                GroupKey::from_value(&Value::Text("south".into())),
                south.clone(),
            ),
        ])
        .unwrap(),
    );
    let grouped = dataset.clone().group_by(["region"]);
    let routed = session
        .score::<LinearRegressionModel>(&grouped, "churn_by_region", "x")
        .unwrap();
    for (i, row) in dataset.collect_rows().unwrap().iter().enumerate() {
        let region = row.get(0).as_text().unwrap();
        let model = if region == "north" { &north } else { &south };
        let x = row.get(1).as_double_array().unwrap();
        let want = model.predict_value(x).unwrap();
        assert_predictions_eq(
            std::slice::from_ref(&routed[i]),
            std::slice::from_ref(&want),
            "catalog grouped",
        );
    }

    // Typed errors: unknown name, wrong type, missing group.
    assert!(matches!(
        session.score::<LinearRegressionModel>(&dataset, "missing", "x"),
        Err(e) if e.to_string().contains("model not found")
    ));
    assert!(matches!(
        database.models().get::<KMeansModel>("churn").unwrap_err(),
        EngineError::TypeMismatch { .. }
    ));
    let west_only = GroupedModels::new(vec![(
        GroupKey::from_value(&Value::Text("north".into())),
        FeatureScorer::new(&north, "x"),
    )])
    .unwrap();
    for executor in both_executors() {
        let err = grouped
            .clone()
            .with_executor(executor)
            .score_per_group("churn_by_region", &west_only)
            .unwrap_err();
        match err {
            EngineError::ModelNotFound { name, group } => {
                assert_eq!(name, "churn_by_region");
                assert!(group.is_some());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}

/// `score_into` materializes the predictions as a catalog table whose
/// segment placement mirrors the source.
#[test]
fn score_into_materializes_predictions() {
    let database = Database::new(3).unwrap();
    // Enough rows for more than one (1 024-row) chunk of predictions per
    // segment.
    let points: Vec<(f64, Vec<f64>)> = (0..4000).map(|i| (i as f64, vec![1.0, i as f64])).collect();
    let table = feature_table(&points, Some(7), 3, 8);
    let model = linregr_model(vec![3.0, -0.5]);
    let scorer = FeatureScorer::new(&model, "x");
    let dataset = Dataset::from_table(&table);
    dataset
        .score_into(&scorer, &database, "predictions")
        .unwrap();
    let predictions = database.table("predictions").unwrap();
    assert_eq!(predictions.schema().columns().len(), 1);
    assert_eq!(predictions.num_segments(), table.num_segments());
    let scored = dataset.score(&scorer).unwrap();
    let materialized: Vec<Value> = Dataset::from_table(&predictions)
        .map_rows(|row, _| Ok(row.get(0).clone()))
        .unwrap();
    assert_predictions_eq(&materialized, &scored, "score_into");
    // Per segment, predictions line up with the source segment's rows —
    // chunk for chunk what inserting them one at a time builds.
    let mut by_row = Table::new(predictions.schema().clone(), 3).unwrap();
    let mut scored = scored.into_iter();
    for seg in 0..table.num_segments() {
        assert_eq!(
            predictions.segment(seg).len(),
            table.segment(seg).len(),
            "segment {seg}"
        );
        for prediction in scored.by_ref().take(table.segment(seg).len()) {
            by_row
                .insert_into_segment(seg, Row::new(vec![prediction]))
                .unwrap();
        }
        assert_eq!(predictions.segment(seg), by_row.segment(seg));
        assert_eq!(predictions.segment(seg).chunks().len(), 2);
    }
    assert_eq!(predictions.chunk_capacity(), by_row.chunk_capacity());
    // Name collisions surface as the catalog's typed error.
    assert!(matches!(
        dataset.score_into(&scorer, &database, "predictions"),
        Err(EngineError::TableAlreadyExists { .. })
    ));
}

/// A scorer that reports which group's model it is, whatever the row.
struct GroupId(i64);

impl Scorer for GroupId {
    fn output_type(&self) -> ColumnType {
        ColumnType::Int
    }

    fn predict_chunk(
        &self,
        chunk: &RowChunk,
        _schema: &Schema,
        out: &mut Vec<Value>,
    ) -> madlib::engine::Result<()> {
        out.extend((0..chunk.len()).map(|_| Value::Int(self.0)));
        Ok(())
    }
}

/// The three grouped terminals share one keying pass, so on one table they
/// must report the same key set and the same per-key row counts as the
/// per-row reference — under the parallel and serial executors, filtered and
/// not.  The table
/// alternates phases of three fat groups (≥ 4 rows per group and chunk: the
/// direct-gather path) with phases of hundreds of thin composite groups (< 4: the
/// radix staging path), with NULL, NaN and `-0.0` key parts in both.
#[test]
fn grouped_terminals_agree_on_keys_and_row_counts() {
    let schema = Schema::new(vec![
        Column::new("tenant", ColumnType::Text),
        Column::new("bucket", ColumnType::Double),
        Column::new("v", ColumnType::Double),
    ]);
    let mut table = Table::new(schema, 3)
        .unwrap()
        .with_chunk_capacity(64)
        .unwrap();
    for i in 0..4_000usize {
        let (tenant, bucket) = if (i / 600) % 2 == 0 {
            (Value::Text("fat".into()), (i / 3 % 3) as f64)
        } else {
            let tenant = match i % 97 {
                0 => Value::Null,
                t => Value::Text(format!("t{t}")),
            };
            let bucket = [0.0, -0.0, f64::NAN][i / 3 % 3];
            (tenant, bucket)
        };
        table
            .insert(Row::new(vec![
                tenant,
                Value::Double(bucket),
                Value::Double(i as f64),
            ]))
            .unwrap();
    }

    let mut reports = Vec::new();
    for executor in both_executors() {
        for filter in [None, Some(Predicate::column_lt("v", 3_100.0))] {
            let mut dataset = Dataset::from_table(&table)
                .with_executor(executor)
                .group_by(["tenant", "bucket"]);
            if let Some(predicate) = filter {
                dataset = dataset.filter(predicate);
            }
            let counted = dataset.aggregate_per_group(&CountAggregate).unwrap();
            assert!(counted.len() > 150, "both phases contribute groups");
            let by_rows = reference::aggregate_per_group(&dataset, &CountAggregate).unwrap();
            assert_eq!(by_rows, counted, "per-row reference vs aggregate_per_group");

            let gathered: Vec<(GroupKey, u64)> = dataset
                .gather_groups()
                .unwrap()
                .into_iter()
                .map(|(key, group)| (key, group.row_count() as u64))
                .collect();
            assert_eq!(gathered, counted, "gather_groups vs aggregate_per_group");

            // One scorer per key, named by the key's rank.
            let scorers = GroupedModels::new(
                counted
                    .iter()
                    .enumerate()
                    .map(|(rank, (key, _))| (key.clone(), GroupId(rank as i64)))
                    .collect(),
            )
            .unwrap();
            let mut scored = vec![0u64; counted.len()];
            for prediction in dataset.score_per_group("rank", &scorers).unwrap() {
                scored[prediction.as_int().unwrap() as usize] += 1;
            }
            let counts: Vec<u64> = counted.iter().map(|(_, count)| *count).collect();
            assert_eq!(scored, counts, "score_per_group vs aggregate_per_group");
            reports.push(counted);
        }
    }
    // And the executors agree with each other.
    assert_eq!(reports[0], reports[2]);
    assert_eq!(reports[1], reports[3]);
}

/// A predictor that takes a vector of any width and scores it to the sum of
/// its features, so ragged chunks have values to compare, not just errors.
struct FeatureSum;

impl Predictor for FeatureSum {
    fn output_type(&self) -> ColumnType {
        ColumnType::Double
    }

    fn predict_value(&self, x: &[f64]) -> madlib::methods::Result<Value> {
        Ok(Value::Double(x.iter().sum()))
    }
}

/// The per-row plan with its first error kept: walk the filter-surviving
/// rows in scan order, NULL features scoring to NULL, anything else through
/// the model's typed per-row predict.
fn row_plan<P: Predictor>(
    dataset: &Dataset,
    model: &P,
    column: &str,
) -> madlib::engine::Result<Vec<Value>> {
    dataset.map_rows(|row, schema| {
        let value = row.get_named(schema, column)?;
        if value.is_null() {
            return Ok(Value::Null);
        }
        model
            .predict_value(value.as_double_array()?)
            .map_err(EngineError::invalid)
    })
}

/// Builds `g (bigint) | y (double) | note (text) | x (double[]) | d (double)`
/// in 8-row chunks over three segments, with `x` from `features(i)`: `g`
/// changes every other row, so every chunk mixes groups; `y` is
/// `7 i mod 10`, so `y < 6` compacts every chunk; `note` is text the scorers
/// never read.
fn fallback_table(rows: usize, features: impl Fn(usize) -> Value) -> Table {
    let schema = Schema::new(vec![
        Column::new("g", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("note", ColumnType::Text),
        Column::new("x", ColumnType::DoubleArray),
        Column::new("d", ColumnType::Double),
    ]);
    let mut table = Table::new(schema, 3)
        .unwrap()
        .with_chunk_capacity(8)
        .unwrap();
    for i in 0..rows {
        table
            .insert(Row::new(vec![
                Value::Int((i / 2 % 3) as i64),
                Value::Double((i * 7 % 10) as f64),
                Value::Text(format!("row {i}")),
                features(i),
                Value::Double(i as f64 * 0.5),
            ]))
            .unwrap();
    }
    table
}

/// `FeatureScorer`'s fallback (NULL-bearing or ragged chunks) against the
/// per-row plan: values bit for bit, or the plan's first error, through
/// `score` and `score_per_group` (every group served by the same model),
/// under both executors, filtered and not.  The shapes: ragged widths
/// within one chunk; one wrong-width row after good ones; a feature column
/// that is not `double precision[]`; and a text column beside the features
/// of NULL-bearing chunks.
#[test]
fn feature_scorer_fallback_matches_the_row_plan() {
    fn check<P: Predictor>(table: &Table, model: &P, column: &str, context: &str) {
        let scorers = GroupedModels::new(
            (0..3)
                .map(|g| {
                    let key = GroupKey::from_value(&Value::Int(g));
                    (key, FeatureScorer::new(model, column))
                })
                .collect(),
        )
        .unwrap();
        for executor in both_executors() {
            for filtered in [false, true] {
                let mut dataset = Dataset::from_table(table).with_executor(executor);
                if filtered {
                    dataset = dataset.filter(Predicate::column_lt("y", 6.0));
                }
                let context = format!("{context}, {executor:?}, filtered: {filtered}");
                let plan = row_plan(&dataset, model, column);
                let scored = dataset.score(&FeatureScorer::new(model, column));
                let grouped = dataset.clone().group_by(["g"]);
                let routed = grouped.score_per_group("same", &scorers);
                for (terminal, got) in [("score", scored), ("score_per_group", routed)] {
                    let context = format!("{context}, {terminal}");
                    match (&got, &plan) {
                        (Ok(got), Ok(want)) => assert_predictions_eq(got, want, &context),
                        (Err(got), Err(want)) => {
                            assert_eq!(got.to_string(), want.to_string(), "{context}")
                        }
                        _ => panic!("{context}: got {got:?}, the row plan {plan:?}"),
                    }
                }
            }
        }
    }
    let rows = 200;
    let ragged = fallback_table(rows, |i| match i % 5 {
        4 => Value::Null,
        _ => Value::DoubleArray((0..1 + i % 4).map(|j| (i * 3 + j) as f64 * 0.25).collect()),
    });
    check(&ragged, &FeatureSum, "x", "ragged widths");
    let linregr = linregr_model(vec![0.5, -1.25, 2.0]);
    // Row 150 survives the filter (7 * 150 mod 10 = 0).
    let late_wrong_width = fallback_table(rows, |i| match i {
        150 => Value::DoubleArray(vec![1.0, 2.0]),
        _ if i % 9 == 0 => Value::Null,
        _ => Value::DoubleArray(vec![1.0, i as f64, -(i as f64) * 0.5]),
    });
    assert!(row_plan(&Dataset::from_table(&late_wrong_width), &linregr, "x").is_err());
    check(
        &late_wrong_width,
        &linregr,
        "x",
        "a wrong width after good rows",
    );
    check(&late_wrong_width, &linregr, "d", "a double feature column");
    let nulls_beside_text = fallback_table(rows, |i| match i % 7 {
        3 => Value::Null,
        _ => Value::DoubleArray(vec![i as f64, 1.0, -0.5]),
    });
    assert!(row_plan(&Dataset::from_table(&nulls_beside_text), &linregr, "x").is_ok());
    check(
        &nulls_beside_text,
        &linregr,
        "x",
        "NULL-bearing chunks beside text",
    );
}

/// A scorer that breaks `predict_chunk`'s count rule: it scores every row of
/// a chunk but the last.
struct DropsLastRow;

impl Scorer for DropsLastRow {
    fn output_type(&self) -> ColumnType {
        ColumnType::Int
    }

    fn predict_chunk(
        &self,
        chunk: &RowChunk,
        _schema: &Schema,
        out: &mut Vec<Value>,
    ) -> madlib::engine::Result<()> {
        out.extend((1..chunk.len()).map(|i| Value::Int(i as i64)));
        Ok(())
    }
}

/// A scorer that appends the wrong number of predictions fails `score`,
/// `score_into` (which then registers no table) and `score_per_group` (on
/// mixed chunks and on single-group ones) with a typed error naming both
/// counts, under both executors — instead of a misaligned or
/// NULL-padded result.
#[test]
fn a_scorer_that_drops_rows_fails_every_terminal() {
    let table = fallback_table(200, |i| Value::DoubleArray(vec![i as f64]));
    let key = |g: i64| GroupKey::from_value(&Value::Int(g));
    let registry = GroupedModels::new((0..3).map(|g| (key(g), DropsLastRow)).collect()).unwrap();
    let database = Database::new(3).unwrap();
    for executor in both_executors() {
        let dataset = Dataset::from_table(&table).with_executor(executor);
        let mixed = dataset.clone().group_by(["g"]);
        let single = mixed.clone().filter(Predicate::column_is_key("g", key(1)));
        let outcomes = [
            ("score", dataset.score(&DropsLastRow).map(drop)),
            (
                "score_into",
                dataset.score_into(&DropsLastRow, &database, "predictions"),
            ),
            (
                "score_per_group, mixed chunks",
                mixed.score_per_group("drops", &registry).map(drop),
            ),
            (
                "score_per_group, one group",
                single.score_per_group("drops", &registry).map(drop),
            ),
        ];
        for (terminal, outcome) in outcomes {
            let context = format!("{terminal}, {executor:?}");
            match outcome {
                Err(err @ EngineError::PredictionCount { rows, predictions }) => {
                    assert_eq!(predictions + 1, rows, "{context}");
                    let message = err.to_string();
                    assert!(message.contains(&format!("{predictions} predictions")));
                    assert!(message.contains(&format!("{rows} rows")), "{context}");
                }
                other => panic!("{context}: expected PredictionCount, got {other:?}"),
            }
        }
        assert!(database.table("predictions").is_err());
    }
}

/// `score_with_stats` reports its pass on a filtered three-segment table:
/// every stored row scanned, the filter's survivors passed (one prediction
/// each, the bits `score` returns), the table's segments, the kernel tier
/// the scan dispatched to, and worker time.
#[test]
fn score_with_stats_counts_the_filtered_pass() {
    let rows = 200;
    let table = fallback_table(rows, |i| Value::DoubleArray(vec![1.0, i as f64, 0.5]));
    let survivors = (0..rows).filter(|i| i * 7 % 10 < 6).count();
    let model = linregr_model(vec![0.25, -1.5, 2.0]);
    let scorer = FeatureScorer::new(&model, "x");
    for executor in both_executors() {
        let dataset = Dataset::from_table(&table)
            .with_executor(executor)
            .filter(Predicate::column_lt("y", 6.0));
        let (predictions, stats) = dataset.score_with_stats(&scorer).unwrap();
        assert_eq!(stats.rows_scanned, rows as u64, "{executor:?}");
        assert_eq!(stats.rows_aggregated, survivors as u64, "{executor:?}");
        assert_eq!(stats.segments, 3);
        assert_eq!(stats.kernel_path, madlib::linalg::kernels::active_path());
        assert!(stats.busy_ns > 0, "{stats:?}");
        let scored = dataset.score(&scorer).unwrap();
        assert_predictions_eq(&predictions, &scored, "score_with_stats");
        assert_eq!(predictions.len(), survivors);
    }
}
