//! Incremental-maintenance equivalence properties.
//!
//! The streaming-ingest contract: a model refreshed from appends only must
//! agree with a full retrain over the grown table.  For single-pass
//! algebraic estimators (linear regression, naive Bayes, the profiler) and
//! for raw materialized aggregates the agreement is *bit-for-bit* — the
//! materialized view shares the batch scan's unit runners and merge
//! hierarchy, and `transition_chunk` is bit-identical to per-row
//! transitions, so absorbing
//! rows in any installment pattern (mid-chunk, across chunk boundaries,
//! across segments) cannot perturb a single bit.  These properties drive
//! randomized installment schedules, tiny chunk capacities, NULL-bearing
//! appends, filters and grouped views through that contract.  For the iterative IRLS solver the refresh warm-starts from the
//! previous model instead: same optimum within the solver's convergence
//! tolerance (documented on `with_initial_coefficients`), not bit-identity.

use madlib::engine::aggregate::{AvgAggregate, SumAggregate};
use madlib::engine::expr::Predicate;
use madlib::engine::{
    row, Column, ColumnType, Database, Dataset, Executor, MaterializedAggregate, Row, Schema,
    Table, Value,
};
use madlib::methods::classify::NaiveBayes;
use madlib::methods::datasets::{
    labeled_point_schema, linear_regression_data, logistic_regression_data,
};
use madlib::methods::regress::{LinearRegression, LogisticRegression};
use madlib::methods::Session;
use madlib::sketch::{ProfileAggregate, Profiler};
use proptest::prelude::*;

/// A session over a catalog holding `points` as table `"events"`, split so
/// that `pending` installments remain to be appended after the initial
/// training pass.  Tiny chunk capacities force every installment pattern to
/// cross chunk boundaries.
fn ingest_session(
    schema: Schema,
    rows: Vec<Row>,
    initial: usize,
    segments: usize,
    chunk_capacity: usize,
) -> (Session, Vec<Row>) {
    let mut table = Table::new(schema, segments)
        .unwrap()
        .with_chunk_capacity(chunk_capacity)
        .unwrap();
    let mut rows = rows;
    let pending = rows.split_off(initial.min(rows.len()));
    for row in rows {
        table.insert(row).unwrap();
    }
    let db = Database::new(segments).unwrap();
    db.register_table("events", table).unwrap();
    (Session::new(db), pending)
}

fn labeled_rows(points: &[(f64, f64, f64)]) -> Vec<Row> {
    points
        .iter()
        .map(|&(y, x1, x2)| row![y, vec![1.0, x1, x2]])
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Splits `pending` into `installments` consecutive batches (sizes derived
/// from the proptest-driven `cuts`), always ending with everything appended.
fn installment_sizes(total: usize, cuts: &[usize]) -> Vec<usize> {
    if total == 0 {
        return Vec::new();
    }
    let mut sizes = Vec::new();
    let mut left = total;
    for &cut in cuts {
        if left == 0 {
            break;
        }
        let take = (cut % left.max(1)).max(1).min(left);
        sizes.push(take);
        left -= take;
    }
    if left > 0 {
        sizes.push(left);
    }
    sizes
}

proptest! {
    /// Linear regression: train, then append in randomized installments,
    /// refreshing after each — every refreshed model must be bit-identical
    /// to retraining from scratch on the grown table.  This is the paper's
    /// algebraic transition/merge/final contract
    /// applied to ingest: the materialized `XᵀX`/`Xᵀy` states absorb only
    /// the appended rows.
    #[test]
    fn linregr_refresh_is_bit_identical_to_retrain(
        points in prop::collection::vec((-10.0..10.0f64, -5.0..5.0f64, -5.0..5.0f64), 8..80),
        initial_fraction in 1usize..8,
        cuts in prop::collection::vec(1usize..40, 0..3),
        segments in 1usize..4,
        chunk_capacity in 2usize..9,
    ) {
        let initial = (points.len() * initial_fraction / 8).max(4);
        let (session, pending) = ingest_session(
            labeled_point_schema(),
            labeled_rows(&points),
            initial,
            segments,
            chunk_capacity,
        );
        let estimator = LinearRegression::new("y", "x");
        session.train_incremental(&estimator, "events", "m").unwrap();

        let mut offset = 0usize;
        for size in installment_sizes(pending.len(), &cuts) {
            let batch = pending[offset..offset + size].to_vec();
            offset += size;
            session.database().append_rows("events", batch).unwrap();

            let refreshed = session.refresh(&estimator, "events", "m").unwrap();
            let retrained = session
                .train(&estimator, &session.dataset("events").unwrap())
                .unwrap();
            prop_assert_eq!(bits(&refreshed.coef), bits(&retrained.coef));
            prop_assert_eq!(refreshed.r2.to_bits(), retrained.r2.to_bits());
            prop_assert_eq!(bits(&refreshed.std_err), bits(&retrained.std_err));
            prop_assert_eq!(refreshed.num_rows, retrained.num_rows);
        }
    }

    /// Naive Bayes: the same append-then-refresh ≡ retrain bit-identity for
    /// the per-class count/sum/sum-of-squares states.
    #[test]
    fn naive_bayes_refresh_is_bit_identical_to_retrain(
        points in prop::collection::vec((0u8..3, -5.0..5.0f64, -5.0..5.0f64), 10..60),
        initial_fraction in 1usize..8,
        cuts in prop::collection::vec(1usize..40, 0..3),
        segments in 1usize..4,
        chunk_capacity in 2usize..9,
    ) {
        let schema = Schema::new(vec![
            Column::new("label", ColumnType::Text),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let rows: Vec<Row> = points
            .iter()
            .map(|&(class, a, b)| row![format!("c{class}"), vec![a, b]])
            .collect();
        let initial = (points.len() * initial_fraction / 8).max(4);
        let (session, pending) = ingest_session(
            schema,
            rows,
            initial,
            segments,
            chunk_capacity,
        );
        let estimator = NaiveBayes::new("label", "x");
        session.train_incremental(&estimator, "events", "nb").unwrap();

        let mut offset = 0usize;
        for size in installment_sizes(pending.len(), &cuts) {
            let batch = pending[offset..offset + size].to_vec();
            offset += size;
            session.database().append_rows("events", batch).unwrap();

            let refreshed = session.refresh(&estimator, "events", "nb").unwrap();
            let retrained = session
                .train(&estimator, &session.dataset("events").unwrap())
                .unwrap();
            prop_assert_eq!(refreshed, retrained);
        }
    }

    /// The profiler: append-then-refresh of the templated per-column profile
    /// (summaries, quantile sketches, FM/CM sketches, frequency tables) —
    /// with NULL-bearing appends — must reproduce the from-scratch profile
    /// exactly.  `Debug` for `f64` round-trips, so equal renderings mean
    /// bit-equal statistics.
    #[test]
    fn profile_refresh_matches_full_reprofile(
        points in prop::collection::vec((-100.0..100.0f64, 0u8..4, any::<bool>()), 10..60),
        initial_fraction in 1usize..8,
        cuts in prop::collection::vec(1usize..40, 0..3),
        segments in 1usize..4,
        chunk_capacity in 2usize..9,
    ) {
        let schema = Schema::new(vec![
            Column::new("amount", ColumnType::Double),
            Column::new("category", ColumnType::Text),
        ]);
        let rows: Vec<Row> = points
            .iter()
            .map(|&(v, c, null)| {
                if null {
                    Row::new(vec![Value::Null, Value::Null])
                } else {
                    row![v, format!("cat{c}")]
                }
            })
            .collect();
        let initial = (points.len() * initial_fraction / 8).max(2);
        let (session, pending) = ingest_session(
            schema,
            rows,
            initial,
            segments,
            chunk_capacity,
        );
        session.train_incremental(&Profiler, "events", "profile").unwrap();

        let mut offset = 0usize;
        for size in installment_sizes(pending.len(), &cuts) {
            let batch = pending[offset..offset + size].to_vec();
            offset += size;
            session.database().append_rows("events", batch).unwrap();

            let refreshed = session.refresh(&Profiler, "events", "profile").unwrap();
            let scratch = session
                .train(&Profiler, &session.dataset("events").unwrap())
                .unwrap();
            prop_assert_eq!(format!("{refreshed:?}"), format!("{scratch:?}"));
        }
    }

    /// Raw materialized aggregates with the dimensions the Session API does
    /// not expose: a filter, a grouped view, and NULL-bearing appends.  The
    /// view's `finalize`/`finalize_grouped` must stay bit-identical to
    /// running the equivalent `Dataset` aggregate from scratch after every
    /// installment.  (Its high-cardinality input —
    /// thousands of composite keys, the radix-staging path — is the
    /// deterministic `high_cardinality_grouped_view_absorbs_bit_identically`
    /// below, which would be too slow to draw 64 times.)
    #[test]
    fn filtered_and_grouped_views_absorb_bit_identically(
        points in prop::collection::vec((-10.0..10.0f64, 0u8..3, any::<bool>()), 6..60),
        initial_fraction in 1usize..8,
        cuts in prop::collection::vec(1usize..40, 0..3),
        segments in 1usize..4,
        chunk_capacity in 2usize..7,
    ) {
        let schema = Schema::new(vec![
            Column::new("v", ColumnType::Double),
            Column::new("g", ColumnType::Text),
        ]);
        let rows: Vec<Row> = points
            .iter()
            .map(|&(v, g, null)| {
                if null {
                    Row::new(vec![Value::Null, Value::Text(format!("g{g}"))])
                } else {
                    row![v, format!("g{g}")]
                }
            })
            .collect();
        let exec = Executor::new();
        let initial = (points.len() * initial_fraction / 8).max(1);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        let mut rows = rows;
        let pending = rows.split_off(initial.min(rows.len()));
        for row in rows {
            table.insert(row).unwrap();
        }

        let filter = Predicate::column_gt("v", 0.0);
        let mut filtered = MaterializedAggregate::new(SumAggregate::new("v"), &exec)
            .with_filter(filter.clone());
        let mut grouped = MaterializedAggregate::new(AvgAggregate::new("v"), &exec)
            .with_group_columns(["g"]);
        filtered.absorb(&table).unwrap();
        grouped.absorb(&table).unwrap();

        let mut offset = 0usize;
        for size in installment_sizes(pending.len(), &cuts) {
            for row in &pending[offset..offset + size] {
                table.insert(row.clone()).unwrap();
            }
            offset += size;
            filtered.absorb(&table).unwrap();
            grouped.absorb(&table).unwrap();

            let sum_scratch = Dataset::from_table(&table)
                .filter(filter.clone())
                .aggregate(&SumAggregate::new("v"))
                .unwrap();
            prop_assert_eq!(
                filtered.finalize().unwrap().to_bits(),
                sum_scratch.to_bits()
            );

            let avg_scratch = Dataset::from_table(&table)
                .group_by(["g"])
                .aggregate_per_group(&AvgAggregate::new("v"))
                .unwrap();
            let avg_view = grouped.finalize_grouped().unwrap();
            prop_assert_eq!(avg_view.len(), avg_scratch.len());
            for ((vk, vv), (sk, sv)) in avg_view.iter().zip(&avg_scratch) {
                prop_assert_eq!(vk, sk);
                prop_assert_eq!(vv.map(f64::to_bits), sv.map(f64::to_bits));
            }
        }
    }

    /// IRLS warm-start: refreshing a logistic model after an append re-fits
    /// seeded from the previous coefficients.  Newton's method on the
    /// ridge-stabilized objective converges to the same optimum from any
    /// start, so warm and cold fits agree within the documented convergence
    /// tolerance — and the warm start never needs more iterations.
    #[test]
    fn irls_warm_start_matches_cold_start_within_tolerance(
        seed_points in prop::collection::vec((-4.0..4.0f64, -4.0..4.0f64), 30..80),
        append_count in 1usize..6,
        segments in 1usize..4,
    ) {
        let rows: Vec<Row> = seed_points
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                // Deterministic logistic labels: compare σ(score) against a
                // hash-style pseudo-uniform draw so the classes overlap (a
                // separable sample would push IRLS toward infinite
                // coefficients and spoil the convergence comparison).
                // Index-dependent jitter keeps the design matrix well
                // conditioned even when proptest samples degenerate
                // (constant) point clouds.
                let a = a + 0.05 * ((i as f64) * 1.7).sin();
                let b = b + 0.05 * ((i as f64) * 2.3).cos();
                let score = 1.5 * a - b;
                let probability = 1.0 / (1.0 + (-score).exp());
                let draw = ((i as f64 + 1.0).sin() * 43_758.545_3).fract().abs();
                row![f64::from(u8::from(probability > draw)), vec![1.0, a, b]]
            })
            .collect();
        let total = rows.len();
        let (session, pending) = ingest_session(
            labeled_point_schema(),
            rows,
            total - append_count,
            segments,
            64,
        );
        let estimator = LogisticRegression::new("y", "x");
        session.train_incremental(&estimator, "events", "lr").unwrap();

        session.database().append_rows("events", pending).unwrap();
        let warm = session.refresh(&estimator, "events", "lr").unwrap();
        let cold = session
            .train(&estimator, &session.dataset("events").unwrap())
            .unwrap();
        // A (near-)separable sample pushes IRLS toward infinite coefficients
        // and neither fit converges — the warm/cold comparison is only
        // meaningful at an interior optimum.
        prop_assume!(warm.converged && cold.converged);
        prop_assert!(warm.num_iterations <= cold.num_iterations);
        for (w, c) in warm.coef.iter().zip(&cold.coef) {
            prop_assert!(
                (w - c).abs() <= 1e-4 * (1.0 + c.abs()),
                "warm {:?} vs cold {:?}", warm.coef, cold.coef
            );
        }
    }
}

/// `Database::append_rows` drives registered views automatically: after an
/// auto-absorbing append, a refresh is a pure re-finalize and still lands on
/// the retrained model bit-for-bit.
#[test]
fn append_rows_auto_absorbs_registered_views() {
    let db = Database::new(2).unwrap();
    let mut table = Table::new(labeled_point_schema(), 2)
        .unwrap()
        .with_chunk_capacity(4)
        .unwrap();
    for i in 0..20 {
        let x = f64::from(i) * 0.3 - 3.0;
        table.insert(row![2.0 * x + 1.0, vec![1.0, x]]).unwrap();
    }
    db.register_table("events", table).unwrap();
    let session = Session::new(db);
    let estimator = LinearRegression::new("y", "x");
    session
        .train_incremental(&estimator, "events", "m")
        .unwrap();

    let appended: Vec<Row> = (20..23)
        .map(|i| {
            let x = f64::from(i) * 0.3 - 3.0;
            row![2.0 * x + 1.0, vec![1.0, x]]
        })
        .collect();
    session.database().append_rows("events", appended).unwrap();

    let refreshed = session.refresh(&estimator, "events", "m").unwrap();
    let retrained = session
        .train(&estimator, &session.dataset("events").unwrap())
        .unwrap();
    assert_eq!(refreshed.num_rows, 23);
    assert_eq!(bits(&refreshed.coef), bits(&retrained.coef));

    // The refreshed model replaced the cataloged one.
    let cataloged = session
        .database()
        .models()
        .get::<madlib::methods::regress::LinearRegressionModel>("m")
        .unwrap();
    assert_eq!(bits(&cataloged.coef), bits(&refreshed.coef));
}

/// A shrunk (truncated) source table is detected and the view rebuilds from
/// scratch instead of serving stale states.
#[test]
fn truncation_between_refreshes_rebuilds_the_view() {
    let db = Database::new(1).unwrap();
    let mut table = Table::new(labeled_point_schema(), 1)
        .unwrap()
        .with_chunk_capacity(4)
        .unwrap();
    for i in 0..12 {
        let x = f64::from(i) * 0.5;
        table.insert(row![3.0 * x - 2.0, vec![1.0, x]]).unwrap();
    }
    db.register_table("events", table).unwrap();
    let session = Session::new(db);
    let estimator = LinearRegression::new("y", "x");
    session
        .train_incremental(&estimator, "events", "m")
        .unwrap();

    // Truncate and refill with different data.
    session
        .database()
        .with_table_mut("events", |t| {
            t.truncate();
            for i in 0..7 {
                let x = f64::from(i) * 0.5;
                t.insert(row![4.0 - x, vec![1.0, x]])?;
            }
            Ok(())
        })
        .unwrap();

    let refreshed = session.refresh(&estimator, "events", "m").unwrap();
    let retrained = session
        .train(&estimator, &session.dataset("events").unwrap())
        .unwrap();
    assert_eq!(refreshed.num_rows, 7);
    assert_eq!(bits(&refreshed.coef), bits(&retrained.coef));
}

/// Grouped profile views and ungrouped sum views under `MADLIB_SIMD=off
/// MADLIB_THREADS=1` run through exactly the same absorb code, so the CI's
/// second pass re-executes every property above in the scalar/serial tier;
/// this deterministic smoke covers the `ProfileAggregate` view type used by
/// `Profiler::train_incremental` directly at the engine level.
#[test]
fn profile_view_absorbs_installments_exactly() {
    let schema = Schema::new(vec![
        Column::new("amount", ColumnType::Double),
        Column::new("category", ColumnType::Text),
    ]);
    let exec = Executor::new();
    let mut table = Table::new(schema.clone(), 2)
        .unwrap()
        .with_chunk_capacity(3)
        .unwrap();
    let mut view = MaterializedAggregate::new(ProfileAggregate::new(&schema), &exec);
    for installment in 0..5 {
        for i in 0..(installment * 3 + 1) {
            let v = f64::from(installment * 10 + i);
            if i % 4 == 3 {
                table
                    .insert(Row::new(vec![Value::Null, Value::Null]))
                    .unwrap();
            } else {
                table.insert(row![v, format!("cat{}", i % 3)]).unwrap();
            }
        }
        view.absorb(&table).unwrap();
        let scratch = Dataset::from_table(&table)
            .with_executor(exec)
            .aggregate(&ProfileAggregate::new(&schema))
            .unwrap();
        assert_eq!(
            format!("{:?}", view.finalize().unwrap()),
            format!("{scratch:?}")
        );
    }
}

/// The high-cardinality input of
/// `filtered_and_grouped_views_absorb_bit_identically`: 2 250 distinct
/// composite keys, permuted so every 64-row chunk holds 64 different groups
/// (the grouped runner's radix-staging path), appended in uneven
/// installments that straddle chunk seals — so the staging buckets are
/// drained at every absorb boundary and resumed from the retained slot
/// directory.  The view must stay `to_bits`-equal to `aggregate_per_group`,
/// parallel and serial.
#[test]
fn high_cardinality_grouped_view_absorbs_bit_identically() {
    const KEYS: usize = 2_250;
    let schema = Schema::new(vec![
        Column::new("v", ColumnType::Double),
        Column::new("a", ColumnType::Text),
        Column::new("b", ColumnType::Int),
    ]);
    let rows: Vec<Row> = (0..3 * KEYS)
        .map(|i| {
            let key = (i * 7_919) % KEYS;
            row![
                i as f64 * 0.1 - 300.0,
                format!("t{}", key % 50),
                (key / 50) as i64
            ]
        })
        .collect();
    let (initial, pending) = rows.split_at(500);
    let installments = [1usize, 63, 64, 130, 1_000, 17, 2_999];

    for exec in [Executor::new(), Executor::serial()] {
        let mut table = Table::new(schema.clone(), 2)
            .unwrap()
            .with_chunk_capacity(64)
            .unwrap();
        for row in initial {
            table.insert(row.clone()).unwrap();
        }
        let mut view = MaterializedAggregate::new(AvgAggregate::new("v"), &exec)
            .with_group_columns(["a", "b"]);
        view.absorb(&table).unwrap();

        let mut offset = 0usize;
        let rest = pending.len() - installments.iter().sum::<usize>();
        for size in installments.into_iter().chain([rest]) {
            for row in &pending[offset..offset + size] {
                table.insert(row.clone()).unwrap();
            }
            offset += size;
            view.absorb(&table).unwrap();

            let scratch = Dataset::from_table(&table)
                .with_executor(exec)
                .group_by(["a", "b"])
                .aggregate_per_group(&AvgAggregate::new("v"))
                .unwrap();
            let refreshed = view.finalize_grouped().unwrap();
            assert_eq!(refreshed.len(), scratch.len());
            for ((vk, vv), (sk, sv)) in refreshed.iter().zip(&scratch) {
                assert_eq!(vk, sk);
                assert_eq!(vv.map(f64::to_bits), sv.map(f64::to_bits), "key {vk:?}");
            }
        }
        assert_eq!(view.finalize_grouped().unwrap().len(), KEYS);
    }
}

/// FNV-1a over the bit patterns of `values`: one number that moves when any
/// bit of any value does.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xCBF2_9CE4_8422_2325, |hash, v| {
        v.to_bits().to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    })
}

/// Every number a linear-regression model reports, digested field by field:
/// `coef`, `std_err`, `t_stats`, `p_values`, then `r2` and `condition_no`.
fn linregr_digests(model: &madlib::methods::regress::LinearRegressionModel) -> [u64; 6] {
    [
        digest(&model.coef),
        digest(&model.std_err),
        digest(&model.t_stats),
        digest(&model.p_values),
        digest(&[model.r2]),
        digest(&[model.condition_no]),
    ]
}

fn seeded_session(table: Table) -> Session {
    let db = Database::new(4).unwrap();
    db.register_table("events", table).unwrap();
    Session::new(db)
}

/// A width-100 model refreshed after each of three installments is the
/// retrained model, bit for bit, in every field — the final function runs
/// the same kernels either way.
#[test]
fn wide_refresh_after_three_installments_is_retrain_bits() {
    let data = linear_regression_data(900, 100, 0.5, 4, 41).unwrap();
    let mut rows = data.table.collect_rows();
    let installments: Vec<Vec<Row>> = [150, 50, 100]
        .iter()
        .map(|&size| rows.split_off(rows.len() - size))
        .collect();
    let mut table = Table::new(labeled_point_schema(), 4).unwrap();
    table.insert_all(rows).unwrap();
    let session = seeded_session(table);
    let estimator = LinearRegression::new("y", "x");
    session
        .train_incremental(&estimator, "events", "m")
        .unwrap();
    for batch in installments {
        session.database().append_rows("events", batch).unwrap();
        let refreshed = session.refresh(&estimator, "events", "m").unwrap();
        let retrained = session
            .train(&estimator, &session.dataset("events").unwrap())
            .unwrap();
        assert_eq!(linregr_digests(&refreshed), linregr_digests(&retrained));
        assert_eq!(refreshed.num_rows, retrained.num_rows);
    }
}

/// The final function's kernels keep every reference chain, so no model bit
/// may move: linear-regression fits of seeded data at widths 8, 32 and 100
/// are pinned to the digests their fields had before the O(k³) algebra ran
/// on the kernel lanes (and a change to those digests is a change in
/// results, not a refactor).
#[test]
fn linregr_model_bits_are_pinned() {
    let pinned: [(usize, [u64; 6]); 3] = [
        (
            8,
            [
                8302445193970852180,
                2138716709505291902,
                13013208889672352644,
                13343092454866122974,
                14507665965081178688,
                69534958007863213,
            ],
        ),
        (
            32,
            [
                354319308929261601,
                2888259722960317607,
                7167232293129694715,
                11453250558173551020,
                17916632779599554745,
                15438751896633549772,
            ],
        ),
        (
            100,
            [
                16648282652406364675,
                10907438489183792903,
                14910706563816561583,
                10158502203862302838,
                13832333391585240708,
                3854666904913471291,
            ],
        ),
    ];
    for (width, want) in pinned {
        let data = linear_regression_data(8 * width + 40, width, 0.25, 4, width as u64).unwrap();
        let session = seeded_session(data.table);
        let model = session
            .train(
                &LinearRegression::new("y", "x"),
                &session.dataset("events").unwrap(),
            )
            .unwrap();
        assert_eq!(linregr_digests(&model), want, "width {width}");
    }
}

/// IRLS's Newton steps (`symmetric_solve`) and its final covariance run on
/// the same kernels: the width-32 coefficients and standard errors are
/// pinned the same way.
#[test]
fn irls_model_bits_are_pinned() {
    let data = logistic_regression_data(1500, 32, 4, 32).unwrap();
    let session = seeded_session(data.table);
    let model = session
        .train(
            &LogisticRegression::new("y", "x"),
            &session.dataset("events").unwrap(),
        )
        .unwrap();
    assert_eq!(
        [digest(&model.coef), digest(&model.std_err)],
        [17529730881968574621, 12055911524339034831],
        "{} iterations",
        model.num_iterations
    );
}
