//! Grouped-training equivalence properties (the paper's `grouping_cols`).
//!
//! `Session::train_grouped` promises that training one model per group —
//! whether through the single-pass grouped scan (single-pass aggregating
//! estimators like linear regression) or the segment-preserving per-group
//! gather (iterative estimators like IRLS logistic regression) — is
//! **bit-identical** to the naive plan: filter the source dataset down to
//! each group with a group-key predicate and fit that group alone.  These
//! property tests enforce the promise over randomized data with NULL group
//! keys, single-row groups, ragged partitions, tiny chunk capacities and
//! extra row filters.

use madlib::engine::expr::Predicate;
use madlib::engine::{Column, ColumnType, Dataset, Executor, GroupKey, Row, Schema, Table, Value};
use madlib::methods::assoc::Apriori;
use madlib::methods::classify::{DecisionTree, LinearSvm, NaiveBayes};
use madlib::methods::cluster::KMeans;
use madlib::methods::factor::LowRankFactorization;
use madlib::methods::regress::{LinearRegression, LogisticRegression};
use madlib::methods::topic::Lda;
use madlib::methods::{Estimator, Session};
use madlib::text::CrfEstimator;
use proptest::prelude::*;

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Builds a `grp (int, nullable) | y (double) | x (double[])` table.
fn grouped_table(
    points: &[(usize, f64, [f64; 2])],
    distinct_keys: usize,
    null_every: Option<usize>,
    segments: usize,
    chunk_capacity: usize,
    binary_labels: bool,
) -> Table {
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table = Table::new(schema, segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for (i, (key, y, x)) in points.iter().enumerate() {
        let group = if null_every.is_some_and(|n| i % n == 0) {
            Value::Null
        } else {
            Value::Int((key % distinct_keys) as i64 - 2)
        };
        let label = if binary_labels {
            f64::from(*y > 0.0)
        } else {
            *y
        };
        table
            .insert(Row::new(vec![
                group,
                Value::Double(label),
                Value::DoubleArray(x.to_vec()),
            ]))
            .unwrap();
    }
    table
}

/// The naive per-group plan: filter the dataset down to one (possibly
/// composite) group key and fit that group alone.
fn filter_then_fit_columns<E: Estimator>(
    estimator: &E,
    table: &Table,
    extra_filter: Option<&Predicate>,
    columns: &[&str],
    key: GroupKey,
) -> madlib::methods::Result<E::Model> {
    let mut ds =
        Dataset::from_table(table).filter(Predicate::columns_are_key(columns.iter().copied(), key));
    if let Some(pred) = extra_filter {
        ds = ds.filter(pred.clone());
    }
    estimator.fit(&ds)
}

/// Single-column shorthand over [`filter_then_fit_columns`] for the `grp`
/// tables used throughout this suite.
fn filter_then_fit<E: Estimator>(
    estimator: &E,
    table: &Table,
    extra_filter: Option<&Predicate>,
    key: GroupKey,
) -> madlib::methods::Result<E::Model> {
    filter_then_fit_columns(estimator, table, extra_filter, &["grp"], key)
}

/// One key-column value for the composite-key property tests: every flavor
/// injects NULLs, and the double flavor additionally cycles `0.0`, `-0.0`
/// and NaN through the key position, so each position of a composite key is
/// exercised with the full set of tricky group values.
fn key_value(flavor: usize, k: usize) -> Value {
    match flavor % 3 {
        0 => match k % 6 {
            0 => Value::Null,
            1 => Value::Double(0.0),
            2 => Value::Double(-0.0),
            3 => Value::Double(f64::NAN),
            other => Value::Double(other as f64),
        },
        1 => {
            if k.is_multiple_of(4) {
                Value::Null
            } else {
                Value::Int((k % 4) as i64 - 2)
            }
        }
        _ => {
            if k.is_multiple_of(5) {
                Value::Null
            } else {
                Value::Text(format!("g{}", k % 3))
            }
        }
    }
}

/// The column type matching [`key_value`]'s flavor.
fn key_column_type(flavor: usize) -> ColumnType {
    match flavor % 3 {
        0 => ColumnType::Double,
        1 => ColumnType::Int,
        _ => ColumnType::Text,
    }
}

/// Builds a table with `num_cols` key columns (`g0`, `g1`, …) of per-column
/// flavors, plus `y` / `x` regression columns.
fn composite_table(
    points: &[(usize, usize, usize, f64, [f64; 2])],
    flavors: &[usize; 3],
    num_cols: usize,
    segments: usize,
    chunk_capacity: usize,
    binary_labels: bool,
) -> (Table, Vec<String>) {
    let columns: Vec<String> = (0..num_cols).map(|c| format!("g{c}")).collect();
    let mut schema_cols: Vec<Column> = columns
        .iter()
        .enumerate()
        .map(|(c, name)| Column::new(name.as_str(), key_column_type(flavors[c])))
        .collect();
    schema_cols.push(Column::new("y", ColumnType::Double));
    schema_cols.push(Column::new("x", ColumnType::DoubleArray));
    let mut table = Table::new(Schema::new(schema_cols), segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for (k0, k1, k2, y, x) in points {
        let ks = [*k0, *k1, *k2];
        let mut values: Vec<Value> = (0..num_cols)
            .map(|c| key_value(flavors[c], ks[c]))
            .collect();
        values.push(Value::Double(if binary_labels {
            f64::from(*y > 0.0)
        } else {
            *y
        }));
        values.push(Value::DoubleArray(x.to_vec()));
        table.insert(Row::new(values)).unwrap();
    }
    (table, columns)
}

proptest! {
    /// Linear regression (single-pass grouped scan): per-group models from
    /// one grouped pass are bit-identical to filter-then-fit per group.
    #[test]
    fn grouped_linregr_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..10, -10.0..10.0f64, [-5.0..5.0f64, -5.0..5.0f64]), 1..100),
        distinct_keys in 1usize..6,
        (segments, chunk_capacity) in (1usize..5, 1usize..30),
        null_every_raw in 0usize..5,
        filtered in any::<bool>(),
    ) {
        let null_every = (null_every_raw >= 2).then_some(null_every_raw);
        let table = grouped_table(&points, distinct_keys, null_every, segments, chunk_capacity, false);
        let extra = filtered.then(|| Predicate::column_gt("y", 0.0));
        let session = Session::in_memory(segments).unwrap();

        let mut grouped_ds = Dataset::from_table(&table).group_by(["grp"]);
        if let Some(pred) = &extra {
            grouped_ds = grouped_ds.filter(pred.clone());
        }
        let estimator = LinearRegression::new("y", "x");
        let grouped = session.train_grouped(&estimator, &grouped_ds).unwrap();

        // Every group key that survives the filter appears exactly once.
        let schema = table.schema();
        let survivors: Vec<Row> = table
            .iter()
            .filter(|r| extra.as_ref().is_none_or(|p| p.evaluate(r, schema).unwrap()))
            .collect();
        let mut expected_keys: Vec<madlib::engine::GroupKey> = survivors
            .iter()
            .map(|r| madlib::engine::GroupKey::from_value(r.get(0)))
            .collect();
        expected_keys.sort();
        expected_keys.dedup();
        prop_assert_eq!(grouped.len(), expected_keys.len());

        let mut total_rows = 0;
        for (key, model) in &grouped {
            let alone = filter_then_fit(
                &estimator, &table, extra.as_ref(), key.clone(),)
            .unwrap();
            prop_assert_eq!(bits(&model.coef), bits(&alone.coef));
            prop_assert_eq!(model.r2.to_bits(), alone.r2.to_bits());
            prop_assert_eq!(bits(&model.std_err), bits(&alone.std_err));
            prop_assert_eq!(bits(&model.t_stats), bits(&alone.t_stats));
            prop_assert_eq!(model.num_rows, alone.num_rows);
            total_rows += model.num_rows as usize;
        }
        prop_assert_eq!(total_rows, survivors.len());
    }

    /// IRLS logistic regression (iterative; per-group gather): the gathered
    /// per-group tables preserve segment placement and row order, so every
    /// per-group IRLS run is bit-identical to filter-then-fit.
    #[test]
    fn grouped_logregr_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..8, -5.0..5.0f64, [-2.0..2.0f64, -2.0..2.0f64]), 2..60),
        distinct_keys in 1usize..4,
        (segments, chunk_capacity) in (1usize..4, 1usize..20),
        null_every_raw in 0usize..4,
    ) {
        let null_every = (null_every_raw >= 2).then_some(null_every_raw);
        let table = grouped_table(&points, distinct_keys, null_every, segments, chunk_capacity, true);
        let session = Session::in_memory(segments).unwrap();
        let estimator = LogisticRegression::new("y", "x").with_max_iterations(5);

        let grouped = session
            .train_grouped(&estimator, &Dataset::from_table(&table).group_by(["grp"]))
            .unwrap();
        prop_assert!(!grouped.is_empty());

        for (key, model) in &grouped {
            let alone = filter_then_fit(
                &estimator, &table, None, key.clone(),)
            .unwrap();
            prop_assert_eq!(bits(&model.coef), bits(&alone.coef));
            prop_assert_eq!(bits(&model.std_err), bits(&alone.std_err));
            prop_assert_eq!(model.log_likelihood.to_bits(), alone.log_likelihood.to_bits());
            prop_assert_eq!(model.num_iterations, alone.num_iterations);
            prop_assert_eq!(model.converged, alone.converged);
            prop_assert_eq!(model.num_rows, alone.num_rows);
        }
    }

    /// Composite keys (the paper's multi-column `grouping_cols`):
    /// `group_by(["g0", "g1"(, "g2")])` trains one linear regression per
    /// distinct key *tuple*, bit-identical to filtering the source down to
    /// each composite key and fitting it alone — across per-position key
    /// flavors mixing NULL, NaN, `-0.0` and int/double/text types, and extra
    /// row filters.
    #[test]
    fn grouped_composite_linregr_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..10, 0usize..10, 0usize..10, -10.0..10.0f64, [-5.0..5.0f64, -5.0..5.0f64]),
            1..80),
        flavors in [0usize..3, 0usize..3, 0usize..3],
        three_cols in any::<bool>(),
        (segments, chunk_capacity) in (1usize..4, 1usize..24),
        filtered in any::<bool>(),
    ) {
        let num_cols = if three_cols { 3 } else { 2 };
        let (table, columns) =
            composite_table(&points, &flavors, num_cols, segments, chunk_capacity, false);
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let extra = filtered.then(|| Predicate::column_gt("y", 0.0));
        let session = Session::in_memory(segments).unwrap();

        let mut grouped_ds = Dataset::from_table(&table).group_by(columns.clone());
        if let Some(pred) = &extra {
            grouped_ds = grouped_ds.filter(pred.clone());
        }
        let estimator = LinearRegression::new("y", "x");
        let grouped = session.train_grouped(&estimator, &grouped_ds).unwrap();

        // Exactly one model per distinct surviving key tuple.
        let schema = table.schema();
        let survivors: Vec<Row> = table
            .iter()
            .filter(|r| extra.as_ref().is_none_or(|p| p.evaluate(r, schema).unwrap()))
            .collect();
        let mut expected_keys: Vec<GroupKey> = survivors
            .iter()
            .map(|r| GroupKey::from_values((0..num_cols).map(|c| r.get(c))))
            .collect();
        expected_keys.sort();
        expected_keys.dedup();
        prop_assert_eq!(grouped.len(), expected_keys.len());
        prop_assert_eq!(
            grouped.keys().cloned().collect::<Vec<_>>(),
            expected_keys
        );

        let mut total_rows = 0;
        for (key, model) in &grouped {
            prop_assert_eq!(key.arity(), num_cols);
            let alone = filter_then_fit_columns(
                &estimator, &table, extra.as_ref(), &column_refs, key.clone(),)
            .unwrap();
            prop_assert_eq!(bits(&model.coef), bits(&alone.coef));
            prop_assert_eq!(model.r2.to_bits(), alone.r2.to_bits());
            prop_assert_eq!(bits(&model.std_err), bits(&alone.std_err));
            prop_assert_eq!(bits(&model.t_stats), bits(&alone.t_stats));
            prop_assert_eq!(model.num_rows, alone.num_rows);
            total_rows += model.num_rows as usize;

            // Composite lookup resolves the same model.
            let looked_up = grouped.get_values(&key.clone().into_values()).unwrap();
            prop_assert_eq!(bits(&looked_up.coef), bits(&model.coef));
        }
        prop_assert_eq!(total_rows, survivors.len());
    }

    /// Composite keys through the *iterative* path: the per-group gather
    /// splits on the key tuple while preserving segment placement, so
    /// two-column grouped IRLS is bit-identical to filter-then-fit.
    #[test]
    fn grouped_composite_logregr_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..6, 0usize..6, 0usize..6, -5.0..5.0f64, [-2.0..2.0f64, -2.0..2.0f64]),
            2..50),
        flavors in [0usize..3, 0usize..3, 0usize..3],
        (segments, chunk_capacity) in (1usize..4, 1usize..16),
    ) {
        let (table, columns) =
            composite_table(&points, &flavors, 2, segments, chunk_capacity, true);
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let session = Session::in_memory(segments).unwrap();
        let estimator = LogisticRegression::new("y", "x").with_max_iterations(4);

        let grouped = session
            .train_grouped(&estimator, &Dataset::from_table(&table).group_by(columns.clone()))
            .unwrap();
        prop_assert!(!grouped.is_empty());

        for (key, model) in &grouped {
            let alone = filter_then_fit_columns(
                &estimator, &table, None, &column_refs, key.clone(),)
            .unwrap();
            prop_assert_eq!(bits(&model.coef), bits(&alone.coef));
            prop_assert_eq!(bits(&model.std_err), bits(&alone.std_err));
            prop_assert_eq!(model.log_likelihood.to_bits(), alone.log_likelihood.to_bits());
            prop_assert_eq!(model.num_iterations, alone.num_iterations);
            prop_assert_eq!(model.num_rows, alone.num_rows);
        }
    }
}

/// Single-row groups (every key unique) train one model per row, identical
/// to fitting each row alone — for both the single-pass and the gather path.
#[test]
fn single_row_groups_train_one_model_per_row() {
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table = Table::new(schema, 3)
        .unwrap()
        .with_chunk_capacity(4)
        .unwrap();
    for i in 0..9 {
        table
            .insert(Row::new(vec![
                Value::Int(i),
                Value::Double(i as f64),
                Value::DoubleArray(vec![1.0, i as f64]),
            ]))
            .unwrap();
    }
    // One row sits in the NULL group too.
    table
        .insert(Row::new(vec![
            Value::Null,
            Value::Double(4.5),
            Value::DoubleArray(vec![1.0, 2.0]),
        ]))
        .unwrap();
    let session = Session::in_memory(3).unwrap();
    let ds = Dataset::from_table(&table).group_by(["grp"]);

    let linregr = session
        .train_grouped(&LinearRegression::new("y", "x"), &ds)
        .unwrap();
    assert_eq!(linregr.len(), 10);
    for (key, model) in &linregr {
        assert_eq!(model.num_rows, 1);
        let alone =
            filter_then_fit(&LinearRegression::new("y", "x"), &table, None, key.clone()).unwrap();
        assert_eq!(bits(&model.coef), bits(&alone.coef));
    }

    // Iterative path over single-row groups (labels 0/1).
    let mut labels = Table::new(table.schema().clone(), 3).unwrap();
    for i in 0..6 {
        labels
            .insert(Row::new(vec![
                Value::Int(i),
                Value::Double(f64::from(i % 2 == 0)),
                Value::DoubleArray(vec![1.0, i as f64 - 2.5]),
            ]))
            .unwrap();
    }
    let estimator = LogisticRegression::new("y", "x").with_max_iterations(3);
    let grouped = session
        .train_grouped(&estimator, &Dataset::from_table(&labels).group_by(["grp"]))
        .unwrap();
    assert_eq!(grouped.len(), 6);
    for (key, model) in &grouped {
        assert_eq!(model.num_rows, 1);
        let alone = filter_then_fit(&estimator, &labels, None, key.clone()).unwrap();
        assert_eq!(bits(&model.coef), bits(&alone.coef));
    }
}

/// Builds a `grp (int, one NULL group) | label (text) | y (double) |
/// x (double[])` classification table: three labeled blobs per group, group
/// keys -1, 0, 1 and NULL, every group populated with `per_group` points.
fn classification_table(segments: usize, chunk_capacity: usize, per_group: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("label", ColumnType::Text),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut table = Table::new(schema, segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for g in 0..4i64 {
        let group = if g == 3 {
            Value::Null
        } else {
            Value::Int(g - 1)
        };
        for i in 0..per_group {
            // Deterministic, group-dependent, separable-ish data.
            let v = i as f64 - per_group as f64 / 2.0 + g as f64 * 0.25;
            let positive = v > 0.0;
            let label = if positive { "pos" } else { "neg" };
            let y = if positive { 1.0 } else { -1.0 };
            let x = vec![1.0, v, v * 0.5 - g as f64, (i % 3) as f64];
            table
                .insert(Row::new(vec![
                    group.clone(),
                    Value::Text(label.into()),
                    Value::Double(y),
                    Value::DoubleArray(x),
                ]))
                .unwrap();
        }
    }
    table
}

/// Runs `estimator` through `Session::train_grouped` over `group_by(["grp"])`
/// and asserts every per-group model equals the filter-then-fit model for
/// that key.
fn assert_grouped_matches_filter_then_fit<E>(estimator: &E, table: &Table, expected_groups: usize)
where
    E: Estimator + Sync,
    E::Model: PartialEq + std::fmt::Debug + Send,
{
    let session = Session::in_memory(table.num_segments()).unwrap();
    let grouped = session
        .train_grouped(estimator, &Dataset::from_table(table).group_by(["grp"]))
        .unwrap();
    assert_eq!(grouped.len(), expected_groups);
    for (key, model) in &grouped {
        let alone = filter_then_fit(estimator, table, None, key.clone()).unwrap();
        assert_eq!(*model, alone, "group {key:?} diverged from filter-then-fit");
    }
}

/// `train_grouped` with k-means: the per-group gather preserves segment
/// placement and row order, so seeding, every Lloyd step and the final
/// inertia pass are identical to fitting the filtered group alone.
#[test]
fn grouped_kmeans_equals_filter_then_fit() {
    let table = classification_table(3, 8, 12);
    let estimator = KMeans::new("x", 2)
        .unwrap()
        .with_seed(7)
        .with_max_iterations(8);
    assert_grouped_matches_filter_then_fit(&estimator, &table, 4);

    // Centroids specifically are bit-identical, not merely close.
    let session = Session::in_memory(3).unwrap();
    let grouped = session
        .train_grouped(&estimator, &Dataset::from_table(&table).group_by(["grp"]))
        .unwrap();
    for (key, model) in &grouped {
        let alone = filter_then_fit(&estimator, &table, None, key.clone()).unwrap();
        for (ca, cb) in model.centroids.iter().zip(&alone.centroids) {
            assert_eq!(bits(ca), bits(cb));
        }
        assert_eq!(model.inertia.to_bits(), alone.inertia.to_bits());
    }
}

/// `train_grouped` with naive Bayes (single-pass override): one grouped scan
/// trains all groups, identical to per-key filtered aggregation.
#[test]
fn grouped_naive_bayes_equals_filter_then_fit() {
    let table = classification_table(2, 8, 15);
    assert_grouped_matches_filter_then_fit(&NaiveBayes::new("label", "x"), &table, 4);
}

/// `train_grouped` with a C4.5 decision tree (iterative/materializing path):
/// the gathered per-group rows arrive in the same order as a filtered scan,
/// so the greedy splits are identical.
#[test]
fn grouped_decision_tree_equals_filter_then_fit() {
    let table = classification_table(2, 8, 15);
    assert_grouped_matches_filter_then_fit(&DecisionTree::new("label", "x"), &table, 4);
}

/// `train_grouped` with a Pegasos linear SVM: the seeded shuffle sees the
/// same row sequence either way, so the weight trajectories are identical.
#[test]
fn grouped_linear_svm_equals_filter_then_fit() {
    let table = classification_table(3, 8, 14);
    let estimator = LinearSvm::new("y", "x").with_seed(11).with_epochs(6);
    assert_grouped_matches_filter_then_fit(&estimator, &table, 4);
}

/// Grouping-column validation surfaces as typed errors through the whole
/// training stack — unknown names and duplicates cannot silently mis-group.
#[test]
fn train_grouped_rejects_bad_grouping_columns() {
    let table = classification_table(2, 8, 6);
    let session = Session::in_memory(2).unwrap();
    let estimator = LinearRegression::new("y", "x");

    // Unknown column name: typed ColumnNotFound from the engine, for both
    // the single-pass (linregr) and gather (logregr) grouped paths.
    let err = session
        .train_grouped(&estimator, &Dataset::from_table(&table).group_by(["nope"]))
        .unwrap_err();
    assert!(
        err.to_string().contains("column not found"),
        "unexpected error: {err}"
    );
    let err = session
        .train_grouped(
            &LogisticRegression::new("y", "x"),
            &Dataset::from_table(&table).group_by(["grp", "nope"]),
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("column not found"),
        "unexpected error: {err}"
    );

    // Duplicate grouping columns are rejected up front.
    let err = session
        .train_grouped(
            &estimator,
            &Dataset::from_table(&table).group_by(["grp", "grp"]),
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("duplicate"),
        "unexpected error: {err}"
    );

    // Valid multi-column grouping works end to end: grp × label tuples.
    let grouped = session
        .train_grouped(
            &estimator,
            &Dataset::from_table(&table).group_by(["grp", "label"]),
        )
        .unwrap();
    assert_eq!(grouped.len(), 8);
    assert!(grouped.keys().all(|key| key.arity() == 2));
}

// ---------------------------------------------------------------------------
// The four newly ported methods (low-rank factorization, LDA, Apriori, CRF):
// each must satisfy the same grouped ≡ filter-then-fit bit-identity as the
// original six, over the same composite-key torture inputs.
// ---------------------------------------------------------------------------

/// Builds a table with two flavor-typed key columns (`g0`, `g1`) followed by
/// the given payload columns, one row per `(k0, k1, payload)` point.
fn keyed_payload_table(
    keys: &[(usize, usize)],
    payloads: Vec<Vec<Value>>,
    payload_columns: Vec<Column>,
    flavors: &[usize; 2],
    segments: usize,
    chunk_capacity: usize,
) -> (Table, Vec<String>) {
    let columns = vec!["g0".to_owned(), "g1".to_owned()];
    let mut schema_cols = vec![
        Column::new("g0", key_column_type(flavors[0])),
        Column::new("g1", key_column_type(flavors[1])),
    ];
    schema_cols.extend(payload_columns);
    let mut table = Table::new(Schema::new(schema_cols), segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    for ((k0, k1), payload) in keys.iter().zip(payloads) {
        let mut values = vec![key_value(flavors[0], *k0), key_value(flavors[1], *k1)];
        values.extend(payload);
        table.insert(Row::new(values)).unwrap();
    }
    (table, columns)
}

proptest! {
    /// Apriori (level-wise aggregate passes through the per-group gather):
    /// one rule-mining model per composite key, bit-identical to mining each
    /// key's filtered transactions alone — itemsets, supports, rules,
    /// confidences and lifts included.
    #[test]
    fn grouped_apriori_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..8, 0usize..8, 0i64..10, prop::collection::vec(0usize..6, 0..5)),
            1..50),
        flavors in [0usize..3, 0usize..3],
        (segments, chunk_capacity) in (1usize..4, 1usize..16),
        filtered in any::<bool>(),
    ) {
        let keys: Vec<(usize, usize)> = points.iter().map(|(a, b, ..)| (*a, *b)).collect();
        let payloads: Vec<Vec<Value>> = points
            .iter()
            .map(|(_, _, tid, items)| {
                vec![
                    Value::Int(*tid),
                    Value::TextArray(items.iter().map(|i| format!("item_{i}")).collect()),
                ]
            })
            .collect();
        let (table, columns) = keyed_payload_table(
            &keys,
            payloads,
            vec![
                Column::new("tid", ColumnType::Int),
                Column::new("items", ColumnType::TextArray),
            ],
            &flavors,
            segments,
            chunk_capacity,
        );
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let extra = filtered.then(|| Predicate::column_gt("tid", 3.5));
        let session = Session::in_memory(segments).unwrap();
        let estimator = Apriori::new("items", 0.3, 0.5).unwrap().with_max_itemset_size(3);

        let mut grouped_ds = Dataset::from_table(&table).group_by(columns.clone());
        if let Some(pred) = &extra {
            grouped_ds = grouped_ds.filter(pred.clone());
        }
        // Filtering every row out yields an *empty* model set, never an
        // error, so grouped mining must succeed for all generated inputs.
        let grouped = session.train_grouped(&estimator, &grouped_ds).unwrap();

        let mut total_transactions = 0;
        for (key, model) in &grouped {
            let alone = filter_then_fit_columns(
                &estimator, &table, extra.as_ref(), &column_refs, key.clone(),)
            .unwrap();
            prop_assert_eq!(model, &alone, "group {:?} diverged", key);
            total_transactions += model.num_transactions;
        }
        let schema = table.schema();
        let survivors = table
            .iter()
            .filter(|r| extra.as_ref().is_none_or(|p| p.evaluate(r, schema).unwrap()))
            .count();
        prop_assert_eq!(total_transactions as usize, survivors);
    }

    /// Low-rank matrix factorization (seeded SGD over gathered triples): the
    /// per-group gather preserves scan order, so every per-group SGD
    /// trajectory — factors, RMSE, epoch count — is bit-identical to
    /// filter-then-fit.
    #[test]
    fn grouped_lowrank_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..6, 0usize..6, 0i64..5, 0i64..5, -2.0..2.0f64), 1..50),
        flavors in [0usize..3, 0usize..3],
        (segments, chunk_capacity) in (1usize..4, 1usize..16),
    ) {
        let keys: Vec<(usize, usize)> = points.iter().map(|(a, b, ..)| (*a, *b)).collect();
        let payloads: Vec<Vec<Value>> = points
            .iter()
            .map(|(_, _, u, i, r)| vec![Value::Int(*u), Value::Int(*i), Value::Double(*r)])
            .collect();
        let (table, columns) = keyed_payload_table(
            &keys,
            payloads,
            vec![
                Column::new("user_id", ColumnType::Int),
                Column::new("item_id", ColumnType::Int),
                Column::new("rating", ColumnType::Double),
            ],
            &flavors,
            segments,
            chunk_capacity,
        );
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let session = Session::in_memory(segments).unwrap();
        let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 2)
            .unwrap()
            .with_epochs(3)
            .with_seed(17);

        let grouped = session
            .train_grouped(&estimator, &Dataset::from_table(&table).group_by(columns.clone()))
            .unwrap();
        prop_assert!(!grouped.is_empty());
        for (key, model) in &grouped {
            let alone = filter_then_fit_columns(
                &estimator, &table, None, &column_refs, key.clone(),)
            .unwrap();
            prop_assert_eq!(model, &alone, "group {:?} diverged", key);
        }
    }

    /// LDA (seeded collapsed Gibbs over gathered documents): same corpus
    /// order per group ⇒ same vocabulary, same topic assignments, same
    /// counts, bit for bit.
    #[test]
    fn grouped_lda_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..6, 0usize..6, prop::collection::vec(0usize..5, 1..6)), 1..30),
        flavors in [0usize..3, 0usize..3],
        (segments, chunk_capacity) in (1usize..4, 1usize..12),
    ) {
        let keys: Vec<(usize, usize)> = points.iter().map(|(a, b, _)| (*a, *b)).collect();
        let payloads: Vec<Vec<Value>> = points
            .iter()
            .map(|(_, _, words)| {
                vec![Value::TextArray(words.iter().map(|w| format!("w{w}")).collect())]
            })
            .collect();
        let (table, columns) = keyed_payload_table(
            &keys,
            payloads,
            vec![Column::new("tokens", ColumnType::TextArray)],
            &flavors,
            segments,
            chunk_capacity,
        );
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let session = Session::in_memory(segments).unwrap();
        let estimator = Lda::new("tokens", 2).unwrap().with_iterations(5).with_seed(3);

        let grouped = session
            .train_grouped(&estimator, &Dataset::from_table(&table).group_by(columns.clone()))
            .unwrap();
        prop_assert!(!grouped.is_empty());
        for (key, model) in &grouped {
            let alone = filter_then_fit_columns(
                &estimator, &table, None, &column_refs, key.clone(),)
            .unwrap();
            prop_assert_eq!(model, &alone, "group {:?} diverged", key);
        }
    }

    /// Chain-CRF training (convex SGD epochs with per-segment model
    /// averaging): the gather preserves each sequence's *segment placement*,
    /// so per-group training reproduces filter-then-fit exactly — weights and
    /// all.
    #[test]
    fn grouped_crf_equals_filter_then_fit(
        points in prop::collection::vec(
            (0usize..5, 0usize..5, prop::collection::vec(0usize..2, 0..6)), 1..30),
        flavors in [0usize..3, 0usize..3],
        (segments, chunk_capacity) in (1usize..4, 1usize..12),
    ) {
        let keys: Vec<(usize, usize)> = points.iter().map(|(a, b, _)| (*a, *b)).collect();
        let payloads: Vec<Vec<Value>> = points
            .iter()
            .enumerate()
            .map(|(i, (_, _, labels))| {
                let observations: Vec<i64> = labels
                    .iter()
                    .map(|&l| (l * 2 + i % 2) as i64)
                    .collect();
                vec![
                    Value::IntArray(observations),
                    Value::IntArray(labels.iter().map(|&l| l as i64).collect()),
                ]
            })
            .collect();
        let (table, columns) = keyed_payload_table(
            &keys,
            payloads,
            vec![
                Column::new("observations", ColumnType::IntArray),
                Column::new("labels", ColumnType::IntArray),
            ],
            &flavors,
            segments,
            chunk_capacity,
        );
        let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
        let session = Session::in_memory(segments).unwrap();
        let estimator = CrfEstimator::new("observations", "labels", 2, 4).with_epochs(3);

        let grouped = session
            .train_grouped(&estimator, &Dataset::from_table(&table).group_by(columns.clone()))
            .unwrap();
        prop_assert!(!grouped.is_empty());
        for (key, model) in &grouped {
            let alone = filter_then_fit_columns(
                &estimator, &table, None, &column_refs, key.clone(),)
            .unwrap();
            prop_assert_eq!(model, &alone, "group {:?} diverged", key);
        }
    }
}

/// Single-row groups through the four newly ported methods: every key unique,
/// one model per row, identical to fitting that row alone.
#[test]
fn single_row_groups_for_newly_ported_methods() {
    let session = Session::in_memory(2).unwrap();

    // Apriori: one single-basket model per group (plus a NULL group).
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("items", ColumnType::TextArray),
    ]);
    let mut baskets = Table::new(schema, 2)
        .unwrap()
        .with_chunk_capacity(2)
        .unwrap();
    for i in 0..5i64 {
        let group = if i == 4 { Value::Null } else { Value::Int(i) };
        baskets
            .insert(Row::new(vec![
                group,
                Value::TextArray(vec![format!("a{i}"), "staple".to_owned()]),
            ]))
            .unwrap();
    }
    let apriori = Apriori::new("items", 0.9, 0.5).unwrap();
    let grouped = session
        .train_grouped(&apriori, &Dataset::from_table(&baskets).group_by(["grp"]))
        .unwrap();
    assert_eq!(grouped.len(), 5);
    for (key, model) in &grouped {
        assert_eq!(model.num_transactions, 1);
        let alone = filter_then_fit(&apriori, &baskets, None, key.clone()).unwrap();
        assert_eq!(*model, alone);
    }

    // Low-rank factorization: one single-rating model per group.
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("user_id", ColumnType::Int),
        Column::new("item_id", ColumnType::Int),
        Column::new("rating", ColumnType::Double),
    ]);
    let mut ratings = Table::new(schema, 2).unwrap();
    for i in 0..4i64 {
        ratings
            .insert(Row::new(vec![
                Value::Int(i),
                Value::Int(i % 2),
                Value::Int(i % 3),
                Value::Double(i as f64 * 0.5),
            ]))
            .unwrap();
    }
    let lowrank = LowRankFactorization::new("user_id", "item_id", "rating", 2)
        .unwrap()
        .with_epochs(2)
        .with_seed(5);
    let grouped = session
        .train_grouped(&lowrank, &Dataset::from_table(&ratings).group_by(["grp"]))
        .unwrap();
    assert_eq!(grouped.len(), 4);
    for (key, model) in &grouped {
        assert_eq!(model.num_ratings, 1);
        let alone = filter_then_fit(&lowrank, &ratings, None, key.clone()).unwrap();
        assert_eq!(*model, alone);
    }

    // LDA: one single-document corpus per group.
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("tokens", ColumnType::TextArray),
    ]);
    let mut corpus = Table::new(schema, 2).unwrap();
    for i in 0..4i64 {
        corpus
            .insert(Row::new(vec![
                Value::Int(i),
                Value::TextArray(vec![format!("w{i}"), "shared".to_owned()]),
            ]))
            .unwrap();
    }
    let lda = Lda::new("tokens", 2)
        .unwrap()
        .with_iterations(3)
        .with_seed(1);
    let grouped = session
        .train_grouped(&lda, &Dataset::from_table(&corpus).group_by(["grp"]))
        .unwrap();
    assert_eq!(grouped.len(), 4);
    for (key, model) in &grouped {
        assert_eq!(model.doc_topic.len(), 1);
        let alone = filter_then_fit(&lda, &corpus, None, key.clone()).unwrap();
        assert_eq!(*model, alone);
    }

    // CRF: one single-sequence corpus per group.
    let schema = Schema::new(vec![
        Column::new("grp", ColumnType::Int),
        Column::new("observations", ColumnType::IntArray),
        Column::new("labels", ColumnType::IntArray),
    ]);
    let mut sequences = Table::new(schema, 2).unwrap();
    for i in 0..4i64 {
        sequences
            .insert(Row::new(vec![
                Value::Int(i),
                Value::IntArray(vec![0, 2, (i % 4), 1]),
                Value::IntArray(vec![0, 1, (i % 2), 0]),
            ]))
            .unwrap();
    }
    let crf = CrfEstimator::new("observations", "labels", 2, 4).with_epochs(2);
    let grouped = session
        .train_grouped(&crf, &Dataset::from_table(&sequences).group_by(["grp"]))
        .unwrap();
    assert_eq!(grouped.len(), 4);
    for (key, model) in &grouped {
        let alone = filter_then_fit(&crf, &sequences, None, key.clone()).unwrap();
        assert_eq!(*model, alone);
    }
}

/// An estimator whose per-group fit panics outright, standing in for a bug
/// inside a method implementation.
struct PanicingEstimator;

impl Estimator for PanicingEstimator {
    type Model = ();

    fn fit(&self, _dataset: &Dataset<'_>) -> madlib::methods::Result<Self::Model> {
        panic!("deliberate per-group fit explosion");
    }
}

/// A panic inside one group's fit must not unwind through the parallel
/// per-group scheduler: `train_grouped` catches it on the worker and
/// surfaces it as the typed `WorkerPanicked` engine error, payload message
/// included, with parallel workers and on the calling thread alike.
#[test]
fn panicking_group_fit_surfaces_typed_worker_panic() {
    let table = classification_table(2, 8, 6);
    for executor in [Executor::new(), Executor::serial()] {
        let session = Session::in_memory(table.num_segments())
            .unwrap()
            .with_executor(executor);
        let err = session
            .train_grouped(
                &PanicingEstimator,
                &Dataset::from_table(&table).group_by(["grp"]),
            )
            .unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("worker panicked"),
            "expected a typed WorkerPanicked error, got: {message}"
        );
        assert!(
            message.contains("deliberate per-group fit explosion"),
            "panic payload lost from the error: {message}"
        );
    }
}

/// Concurrent iterative trainings on one shared session must not share
/// iteration state: each driver holds its own between passes (nothing is
/// staged in the session's catalog), so parallel `train_grouped` calls (as
/// the per-group fit stage issues on a multi-core host) agree bit for bit
/// with a serial one.
#[test]
fn concurrent_iterative_trainings_get_distinct_state_tables() {
    let points: Vec<(usize, f64, [f64; 2])> = (0..48)
        .map(|i| {
            let v = i as f64 * 0.37 - 8.0;
            (i % 5, v, [v * 0.5 + 1.0, (i % 7) as f64 - 3.0])
        })
        .collect();
    let table = grouped_table(&points, 4, None, 2, 8, true);
    let session = Session::in_memory(table.num_segments()).unwrap();
    let estimator = LogisticRegression::new("y", "x").with_max_iterations(4);

    let serial = session
        .train_grouped(&estimator, &Dataset::from_table(&table).group_by(["grp"]))
        .unwrap();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = &session;
                let estimator = &estimator;
                let table = &table;
                scope.spawn(move || {
                    session
                        .train_grouped(estimator, &Dataset::from_table(table).group_by(["grp"]))
                        .unwrap()
                })
            })
            .collect();
        for handle in handles {
            let concurrent = handle.join().unwrap();
            assert_eq!(concurrent.len(), serial.len());
            for ((ka, ma), (kb, mb)) in concurrent.into_iter().zip(&serial) {
                assert_eq!(&ka, kb);
                assert_eq!(bits(&ma.coef), bits(&mb.coef));
            }
        }
    });
}
