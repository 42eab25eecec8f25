//! Cross-crate integration tests: the paper's worked examples exercised
//! end-to-end through the facade crate.

use madlib::convex::objectives::LogisticObjective;
use madlib::convex::{IgdConfig, IgdEstimator, StepSchedule};
use madlib::engine::{reference, row, Column, ColumnType, Database, Dataset, Schema, Table};
use madlib::methods::cluster::KMeans;
use madlib::methods::datasets;
use madlib::methods::regress::{LinearRegression, LogisticRegression};
use madlib::methods::{Estimator, Session};
use madlib::sketch::DatasetProfileExt;
use madlib::text::viterbi::viterbi_decode;
use madlib::text::CrfEstimator;

/// Section 4.1: the single-pass linear regression aggregate produces the
/// composite record of the paper's psql example, and the result is invariant
/// to how the table is partitioned across segments.
#[test]
fn paper_section_4_1_linear_regression_record() {
    let schema = Schema::new(vec![
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table = Table::new(schema, 1).unwrap();
    for i in 0..500 {
        let x = i as f64 / 50.0;
        let noise = ((i * 37) % 11) as f64 / 11.0 - 0.5;
        table
            .insert(row![1.7307 + 2.2428 * x + 0.1 * noise, vec![1.0, x]])
            .unwrap();
    }
    let single = LinearRegression::new("y", "x")
        .fit(&Dataset::from_table(&table))
        .unwrap();
    assert!((single.coef[0] - 1.7307).abs() < 0.05);
    assert!((single.coef[1] - 2.2428).abs() < 0.01);
    assert!(single.r2 > 0.99);
    assert!(single.condition_no.is_finite());
    assert_eq!(single.coef.len(), single.p_values.len());

    let repartitioned = table.repartition(8).unwrap();
    let parallel = LinearRegression::new("y", "x")
        .fit(&Dataset::from_table(&repartitioned))
        .unwrap();
    for (a, b) in single.coef.iter().zip(&parallel.coef) {
        assert!((a - b).abs() < 1e-9, "partitioning changed the result");
    }
}

/// Section 4.2 + Section 5.1: IRLS (Newton) and the SGD framework fit the
/// same logistic-regression model on the same data and agree on predictions.
#[test]
fn irls_and_sgd_agree_on_logistic_regression() {
    let data = datasets::logistic_regression_data(3_000, 3, 4, 77).unwrap();
    let db = Database::new(4).unwrap();

    let irls = Session::new(db.clone())
        .train(
            &LogisticRegression::new("y", "x"),
            &Dataset::from_table(&data.table),
        )
        .unwrap();

    let sgd = IgdEstimator::new(LogisticObjective::new("y", "x", 3))
        .with_config(IgdConfig {
            max_epochs: 150,
            tolerance: 1e-9,
            schedule: StepSchedule::InverseSqrt(0.5),
        })
        .fit(&Dataset::from_table(&data.table))
        .unwrap();

    // Same sign and similar magnitude per coefficient; identical predictions
    // on a probe grid.
    for (a, b) in irls.coef.iter().zip(&sgd.model) {
        assert_eq!(a.signum(), b.signum(), "IRLS {a} vs SGD {b}");
    }
    let mut agreements = 0;
    let mut total = 0;
    for i in -2..=2 {
        for j in -2..=2 {
            for k in -2..=2 {
                let x = [i as f64 * 0.5, j as f64 * 0.5, k as f64 * 0.5];
                let irls_label = irls.predict(&x).unwrap();
                let sgd_score: f64 = x.iter().zip(&sgd.model).map(|(a, b)| a * b).sum();
                if irls_label == (sgd_score >= 0.0) {
                    agreements += 1;
                }
                total += 1;
            }
        }
    }
    assert!(
        agreements as f64 / total as f64 > 0.9,
        "IRLS and SGD disagree on {}/{total} probe points",
        total - agreements
    );
}

/// Section 4.3: the k-means driver recovers planted clusters, end to end
/// through the facade.
#[test]
fn kmeans_pipeline_end_to_end() {
    let data = datasets::gaussian_blobs(600, 3, 4, 0.8, 4, 5).unwrap();
    let session = Session::in_memory(4).unwrap();
    let model = session
        .train(
            &KMeans::new("coords", 3).unwrap().with_seed(11),
            &Dataset::from_table(&data.table),
        )
        .unwrap();
    assert_eq!(model.k(), 3);
    assert!(model.converged);
    for truth in &data.true_centers {
        let nearest = model
            .centroids
            .iter()
            .map(|c| {
                c.iter()
                    .zip(truth)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt()
            })
            .fold(f64::INFINITY, f64::min);
        assert!(nearest < 3.0);
    }
}

/// Section 3.1.3: the profile module handles an arbitrary schema produced by
/// another part of the library.
#[test]
fn profile_module_over_generated_tables() {
    let data = datasets::linear_regression_data(800, 4, 0.2, 4, 3).unwrap();
    let profile = Dataset::from_table(&data.table).profile().unwrap();
    assert_eq!(profile.row_count, 800);
    assert_eq!(profile.columns.len(), 2);
    assert_eq!(profile.columns[0].name(), "y");
    assert_eq!(profile.columns[1].name(), "x");
}

/// Section 5 + Section 3.1.3: the profile/sketch pass runs through the shared
/// executor scan pipeline rather than a private row loop.  This is observable
/// behaviour: [`ProfileAggregate`] works with the executor's modes, filters
/// and grouping, and execution statistics confirm the scan was the
/// executor's.
#[test]
fn profile_runs_on_the_shared_scan_pipeline() {
    use madlib::engine::expr::Predicate;
    use madlib::engine::{row, Value};
    use madlib::sketch::{ColumnProfile, MostFrequentValuesAggregate, ProfileAggregate};

    let schema = Schema::new(vec![
        Column::new("amount", ColumnType::Double),
        Column::new("category", ColumnType::Text),
    ]);
    let mut table = Table::new(schema, 4).unwrap();
    for i in 0..400usize {
        let category = if i % 3 == 0 { "a" } else { "b" };
        table.insert(row![i as f64, category]).unwrap();
    }

    // The profile is an ordinary aggregate on the pipeline: it composes with
    // filters and reports the executor's scan statistics.
    let aggregate = ProfileAggregate::new(table.schema());
    let (profile, stats) = Dataset::from_table(&table)
        .filter(Predicate::column_lt("amount", 100.0))
        .aggregate_with_stats(&aggregate)
        .unwrap();
    assert_eq!(stats.rows_scanned, 400);
    assert_eq!(stats.rows_aggregated, 100);
    assert_eq!(stats.segments, 4);
    assert_eq!(profile.row_count, 100);
    match &profile.columns[0] {
        ColumnProfile::Numeric { summary, .. } => {
            assert_eq!(summary.count(), 100);
            assert_eq!(summary.max(), Some(99.0));
        }
        other => panic!("expected numeric profile, got {other:?}"),
    }

    // The chunked scan and the per-row reference agree on every exact field.
    let chunked = Dataset::from_table(&table).profile().unwrap();
    let by_rows = reference::aggregate(&Dataset::from_table(&table), &aggregate).unwrap();
    assert_eq!(chunked.row_count, by_rows.row_count);
    match (&chunked.columns[1], &by_rows.columns[1]) {
        (
            ColumnProfile::Categorical {
                non_null: a,
                distinct_exact: da,
                most_common: ca,
                ..
            },
            ColumnProfile::Categorical {
                non_null: b,
                distinct_exact: db,
                most_common: cb,
                ..
            },
        ) => {
            assert_eq!((a, da, ca), (b, db, cb));
        }
        other => panic!("expected categorical profiles, got {other:?}"),
    }

    // Sketch adapters also compose with the pipeline's grouping — one MFV
    // sketch per group in a single pass.
    let grouped = Dataset::from_table(&table)
        .group_by(["category"])
        .aggregate_per_group(&MostFrequentValuesAggregate::new("category", 1))
        .unwrap();
    assert_eq!(grouped.len(), 2);
    assert_eq!(grouped[0].0.clone().into_value(), Value::Text("a".into()));
    assert_eq!(grouped[0].1, vec![("a".to_owned(), 134)]);
    assert_eq!(grouped[1].1, vec![("b".to_owned(), 266)]);

    // And the profile itself can run per group through the same machinery —
    // both directly and as grouped training of the Profiler estimator.
    let profiles_per_group = Session::in_memory(1)
        .unwrap()
        .train_grouped(
            &madlib::sketch::Profiler,
            &Dataset::from_table(&table).group_by(["category"]),
        )
        .unwrap();
    let total: usize = profiles_per_group.iter().map(|(_, p)| p.row_count).sum();
    assert_eq!(total, 400);
}

/// Section 5.2: CRF training via the convex framework feeds Viterbi decoding
/// that recovers the generating labels.
#[test]
fn crf_training_and_viterbi_recover_generator_labels() {
    let schema = Schema::new(vec![
        Column::new("observations", ColumnType::IntArray),
        Column::new("labels", ColumnType::IntArray),
    ]);
    let mut corpus = Table::new(schema, 4).unwrap();
    for s in 0..60usize {
        let mut observations = Vec::new();
        let mut labels = Vec::new();
        for t in 0..8 {
            let label = (t + s) % 2;
            observations.push((label * 2 + s % 2) as i64);
            labels.push(label as i64);
        }
        corpus
            .insert(madlib::engine::Row::new(vec![
                madlib::engine::Value::IntArray(observations),
                madlib::engine::Value::IntArray(labels),
            ]))
            .unwrap();
    }
    let crf = Session::in_memory(4)
        .unwrap()
        .train(
            &CrfEstimator::new("observations", "labels", 2, 4).with_epochs(40),
            &Dataset::from_table(&corpus),
        )
        .unwrap();
    let (decoded, _) = viterbi_decode(&crf, &[0, 2, 1, 3, 0, 2]).unwrap();
    assert_eq!(decoded, vec![0, 1, 0, 1, 0, 1]);
}
