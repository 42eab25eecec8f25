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
//! randomized installment schedules, tiny chunk capacities and NULL-bearing
//! appends through that contract.  For the iterative IRLS solver the refresh warm-starts from the
//! previous model instead: same optimum within the solver's convergence
//! tolerance (documented on `with_initial_coefficients`), not bit-identity.

use madlib::engine::aggregate::{AvgAggregate, SumAggregate};
use madlib::engine::{
    row, Absorbed, Column, ColumnType, Database, Dataset, EngineError, Executor,
    MaterializedAggregate, Row, Schema, Table, Value,
};
use madlib::methods::classify::NaiveBayes;
use madlib::methods::datasets::{
    labeled_point_schema, linear_regression_data, logistic_regression_data,
};
use madlib::methods::regress::{LinearRegression, LinearRegressionModel, LogisticRegression};
use madlib::methods::{MethodError, Session};
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

    /// Raw materialized aggregates over NULL-bearing appends: the views'
    /// `finalize` must stay bit-identical to running the same `Dataset`
    /// aggregate from scratch after every installment, and each absorb must
    /// report exactly the installment's rows as caught up.
    #[test]
    fn views_absorb_bit_identically(
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

        let mut sum = MaterializedAggregate::new(SumAggregate::new("v"), &exec);
        let mut avg = MaterializedAggregate::new(AvgAggregate::new("v"), &exec);
        sum.absorb(&table).unwrap();
        avg.absorb(&table).unwrap();

        let mut offset = 0usize;
        for size in installment_sizes(pending.len(), &cuts) {
            for row in &pending[offset..offset + size] {
                table.insert(row.clone()).unwrap();
            }
            offset += size;
            sum.absorb(&table).unwrap();
            avg.absorb(&table).unwrap();
            let caught_up = Some(Absorbed::CaughtUp { rows: size as u64 });
            prop_assert_eq!(sum.last_absorb(), caught_up);
            prop_assert_eq!(avg.last_absorb(), caught_up);

            let sum_scratch = Dataset::from_table(&table)
                .aggregate(&SumAggregate::new("v"))
                .unwrap();
            prop_assert_eq!(sum.finalize().unwrap().to_bits(), sum_scratch.to_bits());

            let avg_scratch = Dataset::from_table(&table)
                .aggregate(&AvgAggregate::new("v"))
                .unwrap();
            prop_assert_eq!(
                avg.finalize().unwrap().map(f64::to_bits),
                avg_scratch.map(f64::to_bits)
            );
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

/// Refreshing a model with an estimator of another aggregate type than the
/// one it was trained with is a typed error naming the model — the view
/// holds linregr states, which a profile cannot finalize — and the
/// cataloged model is left as it was.
#[test]
fn refreshing_with_another_estimator_is_a_typed_error() {
    let db = Database::new(2).unwrap();
    db.create_table("t", labeled_point_schema()).unwrap();
    let rows = (0..12).map(|i| {
        let x = f64::from(i) * 0.5;
        row![3.0 * x - 2.0, vec![1.0, x]]
    });
    db.append_rows("t", rows.collect::<Vec<_>>()).unwrap();
    let session = Session::new(db);
    let trained = session
        .train_incremental(&LinearRegression::new("y", "x"), "t", "m")
        .unwrap();

    match session.refresh(&Profiler, "t", "m") {
        Err(MethodError::Engine(EngineError::InvalidArgument { message })) => {
            assert!(message.contains("\"m\""), "{message}");
            assert!(message.contains("different aggregate type"), "{message}");
        }
        other => panic!("expected a typed aggregate-type error, got {other:?}"),
    }
    let served = session
        .database()
        .models()
        .get::<LinearRegressionModel>("m")
        .unwrap();
    assert_eq!(bits(&served.coef), bits(&trained.coef));
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

/// What one iterative fit reports: a digest per reported number (field by
/// field), then its iteration count and whether it converged.
type FitBits = (Vec<u64>, usize, bool);

/// The iterative fits the driver loop carries — IRLS, Lloyd, IGD epochs and
/// CRF training — under `executor`: logregr cold, warm-started and stopped
/// by its cap; k-means under k-means++ and `Random` seeding, warm-started
/// and capped at one iteration; least-squares IGD converging and capped; one
/// CRF fit (which reports only its weights).
fn iterative_fit_bits(executor: Executor) -> Vec<FitBits> {
    use madlib::convex::objectives::LeastSquaresObjective;
    use madlib::convex::{IgdConfig, IgdEstimator, StepSchedule};
    use madlib::methods::cluster::{KMeans, SeedingMethod};
    use madlib::methods::datasets::gaussian_blobs;
    use madlib::text::CrfEstimator;

    let mut fits = Vec::new();
    let logistic = logistic_regression_data(600, 6, 4, 7).unwrap().table;
    let session = Session::new(Database::new(4).unwrap()).with_executor(executor);
    let fit = |estimator: &LogisticRegression| {
        let model = session
            .train(estimator, &Dataset::from_table(&logistic))
            .unwrap();
        let digests = vec![
            digest(&model.coef),
            digest(&model.std_err),
            digest(&model.z_stats),
            digest(&model.p_values),
            digest(&[model.log_likelihood]),
            model.num_rows,
        ];
        ((digests, model.num_iterations, model.converged), model.coef)
    };
    let (cold, coef) = fit(&LogisticRegression::new("y", "x"));
    let warm_start = coef.iter().map(|c| 0.5 * c).collect();
    fits.push(cold);
    fits.push(fit(&LogisticRegression::new("y", "x").with_initial_coefficients(warm_start)).0);
    fits.push(fit(&LogisticRegression::new("y", "x").with_max_iterations(2)).0);

    let blobs = gaussian_blobs(800, 4, 3, 12.0, 4, 11).unwrap().table;
    let fit = |estimator: KMeans| {
        let model = session
            .train(&estimator, &Dataset::from_table(&blobs))
            .unwrap();
        let digests = vec![
            digest(&model.centroids.concat()),
            digest(&[model.inertia]),
            model.num_points as u64,
        ];
        (
            (digests, model.iterations, model.converged),
            model.centroids,
        )
    };
    let kmeans = || KMeans::new("coords", 4).unwrap().with_seed(3);
    let (plus_plus, centroids) = fit(kmeans().with_seeding(SeedingMethod::KMeansPlusPlus));
    let warm_start = centroids
        .iter()
        .map(|c| c.iter().map(|x| x + 0.25).collect())
        .collect();
    fits.push(plus_plus);
    fits.push(fit(kmeans().with_seeding(SeedingMethod::Random)).0);
    fits.push(fit(kmeans().with_initial_centroids(warm_start)).0);
    fits.push(fit(kmeans().with_max_iterations(1)).0);

    let linear = linear_regression_data(500, 3, 0.1, 4, 5).unwrap().table;
    for max_epochs in [200, 3] {
        let estimator =
            IgdEstimator::new(LeastSquaresObjective::new("y", "x", 3)).with_config(IgdConfig {
                max_epochs,
                tolerance: 1e-6,
                schedule: StepSchedule::Constant(0.05),
            });
        let summary = session
            .train(&estimator, &Dataset::from_table(&linear))
            .unwrap();
        let digests = vec![
            digest(&summary.model),
            digest(&[summary.objective_value]),
            digest(&[summary.initial_objective_value]),
        ];
        fits.push((digests, summary.epochs, summary.converged));
    }

    let mut corpus = Table::new(
        Schema::new(vec![
            Column::new("observations", ColumnType::IntArray),
            Column::new("labels", ColumnType::IntArray),
        ]),
        2,
    )
    .unwrap();
    for s in 0..40_usize {
        let labels: Vec<i64> = (0..5 + s % 4).map(|t| ((t + s) % 2) as i64).collect();
        let observations = labels.iter().map(|&l| l * 2 + (s % 2) as i64).collect();
        corpus
            .insert(Row::new(vec![
                Value::IntArray(observations),
                Value::IntArray(labels),
            ]))
            .unwrap();
    }
    let crf = session
        .train(
            &CrfEstimator::new("observations", "labels", 2, 4).with_epochs(10),
            &Dataset::from_table(&corpus),
        )
        .unwrap();
    fits.push((vec![digest(crf.weights())], 0, false));
    fits
}

/// How a driver holds the state between its passes must not move a bit:
/// every number each iterative fit reports, its iteration count and whether
/// it converged are pinned to what they were while the drivers staged their
/// state in a catalog table, under both executors.
#[test]
fn iterative_fit_bits_are_pinned() {
    let logregr = [
        17152753459313107334,
        14258086830526722960,
        5521077674256451010,
    ];
    let logregr_warm = [
        1994849017861721208,
        15363486217605586095,
        2070976253640313440,
    ];
    let logregr_capped = [
        2489724210555599932,
        11698614399426213952,
        13059288605347115408,
    ];
    let pinned: Vec<FitBits> = vec![
        (
            [
                &logregr[..],
                &[8011160679779466385, 760731101590869350, 600],
            ]
            .concat(),
            7,
            true,
        ),
        (
            [
                &logregr_warm[..],
                &[8011160679779466385, 760731101590869350, 600],
            ]
            .concat(),
            6,
            true,
        ),
        (
            [
                &logregr_capped[..],
                &[17081303764280668773, 5948722377632978875, 600],
            ]
            .concat(),
            2,
            false,
        ),
        (
            vec![4095654637290687349, 13515110480387902489, 800],
            4,
            true,
        ),
        (
            vec![5084243930201216892, 17145922708540920193, 800],
            11,
            true,
        ),
        (
            vec![4095654637290687349, 13515110480387902489, 800],
            2,
            true,
        ),
        (
            vec![8698902507095743261, 10930315899678503811, 800],
            1,
            false,
        ),
        (
            vec![
                2520848773536430947,
                13705904285059026245,
                17224528864126347438,
            ],
            5,
            true,
        ),
        (
            vec![
                1274374336063669580,
                10267208076641729632,
                17224528864126347438,
            ],
            3,
            false,
        ),
        (vec![399471804546107422], 0, false),
    ];
    for executor in [Executor::new(), Executor::serial()] {
        assert_eq!(iterative_fit_bits(executor), pinned, "{executor:?}");
    }
}

/// `digest`'s FNV-1a step over the bytes of `labels`, each followed by a
/// `0xFF` separator byte, started from 0.
fn digest_labels<'a>(labels: impl IntoIterator<Item = &'a str>) -> u64 {
    labels.into_iter().fold(0, |hash, label| {
        label.bytes().chain([0xFF]).fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    })
}

/// One digest of a list of digests.
fn fold(digests: &[u64]) -> u64 {
    digest(
        &digests
            .iter()
            .map(|&d| f64::from_bits(d))
            .collect::<Vec<_>>(),
    )
}

/// Every number and label of a decision tree, node by node in pre-order.
fn tree_digest(node: &madlib::methods::classify::decision_tree::TreeNode, out: &mut Vec<u64>) {
    use madlib::methods::classify::decision_tree::TreeNode;
    match node {
        TreeNode::Leaf {
            label,
            samples,
            purity,
        } => out.extend([
            digest_labels([label.as_str()]),
            *samples as u64,
            digest(&[*purity]),
        ]),
        TreeNode::Split {
            feature,
            threshold,
            gain_ratio,
            left,
            right,
        } => {
            out.extend([*feature as u64, digest(&[*threshold, *gain_ratio])]);
            tree_digest(left, out);
            tree_digest(right, out);
        }
    }
}

/// Every number and label a column profile reports.
fn column_profile_digest(profile: &madlib::sketch::ColumnProfile) -> Vec<u64> {
    use madlib::sketch::ColumnProfile;
    let summary = |s: &madlib::stats::Summary| {
        let (count, moments, nulls) = s.to_parts();
        [count, digest(&moments), nulls]
    };
    let option = |v: Option<f64>| v.map_or(u64::MAX, |v| v.to_bits());
    match profile {
        ColumnProfile::Numeric {
            name,
            summary: s,
            median,
            percentile_05_95: (p05, p95),
        } => [
            &[digest_labels([name.as_str()])][..],
            &summary(s),
            &[option(*median), option(*p05), option(*p95)],
        ]
        .concat(),
        ColumnProfile::Categorical {
            name,
            non_null,
            nulls,
            distinct_exact,
            distinct_estimate,
            most_common,
            most_common_cm_estimate,
        } => vec![
            digest_labels([name.as_str()]),
            *non_null,
            *nulls,
            *distinct_exact as u64,
            digest(&[*distinct_estimate]),
            digest_labels(most_common.iter().map(|(v, _)| v.as_str())),
            digest(
                &most_common
                    .iter()
                    .map(|&(_, c)| c as f64)
                    .collect::<Vec<_>>(),
            ),
            *most_common_cm_estimate,
        ],
        ColumnProfile::Array {
            name,
            length_summary,
        } => [
            &[digest_labels([name.as_str()])][..],
            &summary(length_summary),
        ]
        .concat(),
    }
}

/// The remaining estimators' fits under `executor`, one digest list per
/// model covering every number and label it reports: naive Bayes, the
/// decision tree, the linear SVM, low-rank factorization, LDA, Apriori and
/// the profiler.
fn method_fit_bits(executor: Executor) -> Vec<Vec<u64>> {
    use madlib::methods::assoc::Apriori;
    use madlib::methods::classify::DecisionTree;
    use madlib::methods::classify::LinearSvm;
    use madlib::methods::datasets::{
        document_corpus, gaussian_blobs, market_basket_data, ratings_data,
    };
    use madlib::methods::factor::LowRankFactorization;
    use madlib::methods::topic::Lda;
    use madlib::sketch::Profiler;

    let session = Session::new(Database::new(4).unwrap()).with_executor(executor);
    let mut fits = Vec::new();

    // A labeled table: each blob point carries the name of its nearest
    // generating center.
    let blobs = gaussian_blobs(400, 3, 2, 3.0, 4, 13).unwrap();
    let mut labeled = Table::new(
        Schema::new(vec![
            Column::new("label", ColumnType::Text),
            Column::new("x", ColumnType::DoubleArray),
        ]),
        4,
    )
    .unwrap();
    for row in blobs.table.collect_rows() {
        let x = row.get(1).as_double_array().unwrap().to_vec();
        let nearest = (0..blobs.true_centers.len())
            .min_by(|&a, &b| {
                let d = |c: &[f64]| c.iter().zip(&x).map(|(c, v)| (c - v).powi(2)).sum::<f64>();
                d(&blobs.true_centers[a]).total_cmp(&d(&blobs.true_centers[b]))
            })
            .unwrap();
        labeled.insert(row![format!("c{nearest}"), x]).unwrap();
    }
    let labeled = Dataset::from_table(&labeled);

    let nb = session
        .train(&NaiveBayes::new("label", "x"), &labeled)
        .unwrap();
    let mut bits = vec![nb.total_rows, nb.num_features as u64];
    bits.push(digest_labels(nb.classes.keys().map(String::as_str)));
    for stats in nb.classes.values() {
        bits.extend([stats.count, digest(&stats.means), digest(&stats.variances)]);
    }
    fits.push(bits);

    let tree = session
        .train(&DecisionTree::new("label", "x").with_max_depth(4), &labeled)
        .unwrap();
    let mut bits = vec![tree.num_features as u64, tree.num_rows as u64];
    tree_digest(&tree.root, &mut bits);
    fits.push(bits);

    let logistic = logistic_regression_data(300, 4, 4, 17).unwrap().table;
    let svm = session
        .train(
            &LinearSvm::new("y", "x").with_epochs(5).with_seed(3),
            &Dataset::from_table(&logistic),
        )
        .unwrap();
    fits.push(vec![
        digest(&svm.weights),
        digest(&[svm.lambda, svm.final_objective]),
        svm.epochs as u64,
        svm.num_rows as u64,
    ]);

    let ratings = ratings_data(20, 15, 2, 0.5, 4, 19).unwrap();
    let lowrank = session
        .train(
            &LowRankFactorization::new("user_id", "item_id", "rating", 2)
                .unwrap()
                .with_epochs(5)
                .with_seed(5),
            &Dataset::from_table(&ratings),
        )
        .unwrap();
    fits.push(vec![
        digest(&lowrank.user_factors.concat()),
        digest(&lowrank.item_factors.concat()),
        lowrank.rank as u64,
        digest(&[lowrank.train_rmse]),
        lowrank.num_ratings as u64,
        lowrank.epochs as u64,
    ]);

    let corpus = document_corpus(30, 3, 5, 12, 4, 23).unwrap();
    let lda = session
        .train(
            &Lda::new("tokens", 3)
                .unwrap()
                .with_iterations(5)
                .with_seed(7),
            &Dataset::from_table(&corpus),
        )
        .unwrap();
    let counts = |rows: &[Vec<u32>]| {
        digest(
            &rows
                .concat()
                .iter()
                .map(|&c| f64::from(c))
                .collect::<Vec<_>>(),
        )
    };
    fits.push(vec![
        lda.num_topics as u64,
        digest_labels(lda.vocabulary.iter().map(String::as_str)),
        counts(&lda.topic_word),
        counts(&lda.doc_topic),
        digest(&[lda.alpha, lda.beta]),
        lda.iterations as u64,
    ]);

    let baskets = market_basket_data(200, 8, 4, 29).unwrap();
    let apriori = session
        .train(
            &Apriori::new("items", 0.1, 0.4).unwrap(),
            &Dataset::from_table(&baskets),
        )
        .unwrap();
    let itemsets: Vec<u64> = apriori
        .itemsets
        .iter()
        .flat_map(|itemset| {
            [
                digest_labels(itemset.items.iter().map(String::as_str)),
                digest(&[itemset.support]),
                itemset.count,
            ]
        })
        .collect();
    let rules: Vec<u64> = apriori
        .rules
        .iter()
        .flat_map(|rule| {
            [
                digest_labels(rule.antecedent.iter().map(String::as_str)),
                digest_labels(rule.consequent.iter().map(String::as_str)),
                digest(&[rule.support, rule.confidence, rule.lift]),
            ]
        })
        .collect();
    fits.push(vec![
        apriori.num_transactions,
        apriori.itemsets.len() as u64,
        fold(&itemsets),
        apriori.rules.len() as u64,
        fold(&rules),
    ]);

    let profile = session
        .train(&Profiler, &Dataset::from_table(&baskets))
        .unwrap();
    let mut bits = vec![profile.row_count as u64];
    for column in &profile.columns {
        bits.extend(column_profile_digest(column));
    }
    fits.push(bits);
    fits
}

/// Dropping the session from `Estimator::fit` and moving IGD behind one
/// estimator must not move a bit: every number and label the remaining
/// estimators report is pinned, under both executors.
#[test]
fn method_fit_bits_are_pinned() {
    let pinned: Vec<Vec<u64>> = vec![
        // naive Bayes
        vec![
            400,
            2,
            17766070520165733193,
            128,
            6151958784373897663,
            11836643798545951644,
            124,
            15567081084964816480,
            7543814697974225348,
            148,
            18197712814636330727,
            14585994654827028845,
        ],
        // decision tree
        vec![
            2,
            400,
            0,
            12899083350193501166,
            6406328696632612572,
            128,
            12299727721494879672,
            0,
            1933521545528030261,
            6405202796725513733,
            124,
            12299727721494879672,
            6408017546493166218,
            148,
            12299727721494879672,
        ],
        // linear SVM
        vec![16469378937794412634, 15934431600786207355, 5, 300],
        // low-rank factorization
        vec![
            11651114815139983093,
            12206581307687905046,
            2,
            9505825438251595347,
            157,
            5,
        ],
        // LDA
        vec![
            3,
            6695746628430533438,
            9547729151799167559,
            17274333556364126361,
            8296012028959854394,
            5,
        ],
        // Apriori
        vec![200, 30, 8591946255362302479, 31, 13244370357070607689],
        // profiler
        vec![
            200,
            6505985641176602797,
            200,
            14934795562552348202,
            0,
            4636526185122103296,
            4621256167635550208,
            4640853862889029632,
            4189665139550064378,
            200,
            0,
            2,
            16788780921475677720,
            7069904074851312702,
            11477621443286395161,
            108,
            7456554874281755377,
            200,
            7815959135499232262,
            0,
        ],
    ];
    for executor in [Executor::new(), Executor::serial()] {
        assert_eq!(method_fit_bits(executor), pinned, "{executor:?}");
    }
}

/// Seeded logistic-regression rows of `width` features, in four segments.
fn logistic_table(rows: usize, width: usize, seed: u64) -> Table {
    logistic_regression_data(rows, width, 4, seed)
        .unwrap()
        .table
}

/// Seeded four-blob points of `dims` coordinates, in four segments.
fn blob_table(rows: usize, dims: usize, seed: u64) -> Table {
    madlib::methods::datasets::gaussian_blobs(rows, 4, dims, 12.0, 4, seed)
        .unwrap()
        .table
}

/// An iterative refresh is the fit warm-started explicitly from the
/// cataloged model, bit for bit in every field: logregr seeded with
/// `with_initial_coefficients(previous.coef)`, k-means with
/// `with_initial_centroids(previous.centroids)`, least-squares IGD with
/// `with_initial_model(previous.model)`.
#[test]
fn iterative_refresh_is_the_explicitly_warm_started_fit() {
    use madlib::convex::objectives::LeastSquaresObjective;
    use madlib::convex::{IgdConfig, IgdEstimator, IgdSummary, StepSchedule};
    use madlib::methods::cluster::{KMeans, KMeansModel};
    use madlib::methods::regress::LogisticRegressionModel;

    let session = seeded_session(logistic_table(600, 4, 7));
    let db = session.database();
    db.register_table("points", blob_table(800, 3, 11)).unwrap();
    let logregr = LogisticRegression::new("y", "x");
    let kmeans = KMeans::new("coords", 4).unwrap().with_seed(3);
    session.train_incremental(&logregr, "events", "lr").unwrap();
    session.train_incremental(&kmeans, "points", "km").unwrap();
    db.append_rows("events", logistic_table(60, 4, 8).collect_rows())
        .unwrap();
    db.append_rows("points", blob_table(80, 3, 12).collect_rows())
        .unwrap();

    let previous = db.models().get::<LogisticRegressionModel>("lr").unwrap();
    let warm = logregr
        .clone()
        .with_initial_coefficients(previous.coef.clone());
    let explicit = session
        .train(&warm, &session.dataset("events").unwrap())
        .unwrap();
    let refreshed = session.refresh(&logregr, "events", "lr").unwrap();
    assert_eq!(format!("{refreshed:?}"), format!("{explicit:?}"));

    let previous = db.models().get::<KMeansModel>("km").unwrap();
    let warm = kmeans
        .clone()
        .with_initial_centroids(previous.centroids.clone());
    let explicit = session
        .train(&warm, &session.dataset("points").unwrap())
        .unwrap();
    let refreshed = session.refresh(&kmeans, "points", "km").unwrap();
    assert_eq!(format!("{refreshed:?}"), format!("{explicit:?}"));

    let igd = IgdEstimator::new(LeastSquaresObjective::new("y", "x", 4)).with_config(IgdConfig {
        max_epochs: 20,
        tolerance: 1e-6,
        schedule: StepSchedule::Constant(0.05),
    });
    session.train_incremental(&igd, "events", "igd").unwrap();
    db.append_rows("events", logistic_table(60, 4, 9).collect_rows())
        .unwrap();
    let previous = db.models().get::<IgdSummary>("igd").unwrap();
    let warm = igd.clone().with_initial_model(previous.model.clone());
    let explicit = session
        .train(&warm, &session.dataset("events").unwrap())
        .unwrap();
    let refreshed = session.refresh(&igd, "events", "igd").unwrap();
    assert_eq!(format!("{refreshed:?}"), format!("{explicit:?}"));
}

/// A previous model of the right type whose shape does not fit the
/// estimator and data is no warm start: the refresh is the cold fit, bit for
/// bit, and the catalog serves it.  Logregr after its table was replaced by
/// a wider one; k-means with another `k`, and after its points changed
/// dimension.
#[test]
fn a_misfitting_previous_model_cold_starts_the_refresh() {
    use madlib::methods::cluster::{KMeans, KMeansModel};
    use madlib::methods::regress::LogisticRegressionModel;

    let session = seeded_session(logistic_table(300, 3, 5));
    let db = session.database();
    db.register_table("points", blob_table(400, 3, 6)).unwrap();
    let logregr = LogisticRegression::new("y", "x");
    session.train_incremental(&logregr, "events", "lr").unwrap();
    db.replace_table("events", logistic_table(300, 5, 9))
        .unwrap();
    let refreshed = session.refresh(&logregr, "events", "lr").unwrap();
    let cold = session
        .train(&logregr, &session.dataset("events").unwrap())
        .unwrap();
    assert_eq!(format!("{refreshed:?}"), format!("{cold:?}"));
    let served = db.models().get::<LogisticRegressionModel>("lr").unwrap();
    assert_eq!(format!("{served:?}"), format!("{cold:?}"));

    let kmeans = |k| KMeans::new("coords", k).unwrap().with_seed(2);
    session
        .train_incremental(&kmeans(3), "points", "km")
        .unwrap();
    let refreshed = session.refresh(&kmeans(4), "points", "km").unwrap();
    let cold = session
        .train(&kmeans(4), &session.dataset("points").unwrap())
        .unwrap();
    assert_eq!(format!("{refreshed:?}"), format!("{cold:?}"));

    db.replace_table("points", blob_table(400, 5, 7)).unwrap();
    let refreshed = session.refresh(&kmeans(4), "points", "km").unwrap();
    let cold = session
        .train(&kmeans(4), &session.dataset("points").unwrap())
        .unwrap();
    assert_eq!(format!("{refreshed:?}"), format!("{cold:?}"));
    let served = db.models().get::<KMeansModel>("km").unwrap();
    assert_eq!(format!("{served:?}"), format!("{cold:?}"));
}

/// A single-pass refresh under a name with no view follows the iterative
/// warm start's rule: a model of another type there is the catalog's typed
/// error and stays as it was, bit for bit; only a missing name (or a model
/// of the estimator's own type) trains from scratch.
#[test]
fn single_pass_refresh_over_another_model_is_an_error() {
    use madlib::methods::cluster::{KMeans, KMeansModel};

    let session = seeded_session(logistic_table(200, 3, 5));
    let db = session.database();
    let kmeans = KMeans::new("x", 2).unwrap();
    session.train_incremental(&kmeans, "events", "m").unwrap();
    let before = db.models().get::<KMeansModel>("m").unwrap();
    let linregr = LinearRegression::new("y", "x");
    match session.refresh(&linregr, "events", "m") {
        Err(MethodError::Engine(EngineError::TypeMismatch { .. })) => {}
        other => panic!("expected a type mismatch, got {other:?}"),
    }
    let after = db.models().get::<KMeansModel>("m").unwrap();
    let centroid_bits = |model: &KMeansModel| -> Vec<Vec<u64>> {
        model.centroids.iter().map(|c| bits(c)).collect()
    };
    assert_eq!(centroid_bits(&after), centroid_bits(&before));
    assert_eq!(format!("{after:?}"), format!("{before:?}"));

    let refreshed = session.refresh(&linregr, "events", "fresh").unwrap();
    let trained = session
        .train(&linregr, &session.dataset("events").unwrap())
        .unwrap();
    assert_eq!(bits(&refreshed.coef), bits(&trained.coef));
}

/// An iterative refresh over a cataloged entry it cannot warm-start from —
/// a model of another type, or a grouped registry — is that lookup's typed
/// error, and the entry stays as it was: only a missing name cold-starts.
#[test]
fn iterative_refresh_over_another_entry_is_an_error() {
    use madlib::methods::cluster::{KMeans, KMeansModel};

    let session = seeded_session(logistic_table(200, 3, 5));
    let db = session.database();
    let kmeans = KMeans::new("x", 2).unwrap();
    session.train_incremental(&kmeans, "events", "m").unwrap();
    let before = db.models().get::<KMeansModel>("m").unwrap();
    match session.refresh(&LogisticRegression::new("y", "x"), "events", "m") {
        Err(MethodError::Engine(EngineError::TypeMismatch { .. })) => {}
        other => panic!("expected a type mismatch, got {other:?}"),
    }
    let after = db.models().get::<KMeansModel>("m").unwrap();
    assert_eq!(format!("{after:?}"), format!("{before:?}"));

    let grouped = session
        .train_grouped(&kmeans, &session.dataset("events").unwrap().group_by(["y"]))
        .unwrap();
    db.models().register_grouped("g", grouped);
    let before = db.models().get_grouped::<KMeansModel>("g").unwrap();
    match session.refresh(&kmeans, "events", "g") {
        Err(MethodError::Engine(EngineError::InvalidArgument { .. })) => {}
        other => panic!("expected the grouped-entry error, got {other:?}"),
    }
    let after = db.models().get_grouped::<KMeansModel>("g").unwrap();
    assert_eq!(format!("{after:?}"), format!("{before:?}"));
}
