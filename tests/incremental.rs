//! Incremental maintenance beyond the per-estimator contracts (refresh ≡
//! retrain, refresh ≡ the warm-started fit and refresh over another catalog
//! entry are the conformance kit's, `tests/conformance.rs`): raw
//! materialized aggregates absorb NULL-bearing installments bit for bit,
//! the profile's view at the engine level, linregr's view through randomized
//! installment cuts, `append_rows` absorbing views itself and a truncation
//! rebuilding them, a width-100 refresh is the retrain, IRLS warm starts
//! reach the cold optimum within tolerance, and a misfitting previous model
//! cold-starts.

use madlib::engine::aggregate::{AvgAggregate, SumAggregate};
use madlib::engine::{
    row, Absorbed, Column, ColumnType, Database, Dataset, Executor, MaterializedAggregate, Row,
    Schema, Table, Value,
};
use madlib::methods::datasets::{
    labeled_point_schema, linear_regression_data, logistic_regression_data,
};
use madlib::methods::regress::{LinearRegression, LinearRegressionModel, LogisticRegression};
use madlib::methods::train::{incremental_view_name, SinglePass};
use madlib::methods::Session;
use madlib::sketch::ProfileAggregate;
use proptest::prelude::*;

mod common;

use common::{Entry, Linregr, Shape};

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

    /// Linear regression: train, then append in randomized installments,
    /// refreshing after each — every refreshed model is the model retrained
    /// from scratch on the grown table, bit for bit.  This is the paper's
    /// transition/merge/final contract applied to ingest: the materialized
    /// `XᵀX`/`Xᵀy` states absorb only the appended rows.
    #[test]
    fn linregr_refresh_is_bit_identical_to_retrain(
        (rows, seed) in (8usize..80, any::<u64>()),
        initial_fraction in 1usize..8,
        cuts in prop::collection::vec(1usize..40, 0..3),
        segments in 1usize..4,
        chunk_capacity in 2usize..9,
    ) {
        let shape = Shape { rows, segments, chunk_capacity, seed, ..Shape::FIXED };
        let initial = (rows * initial_fraction / 8).max(4);
        let (session, pending) = ingest_session(
            shape.schema::<Linregr>(),
            shape.rows::<Linregr>(),
            initial,
            segments,
            chunk_capacity,
        );
        let estimator = LinearRegression::new("y", "x");
        session.train_incremental(&estimator, "events", "m").unwrap();

        let mut pending = pending.into_iter();
        for size in installment_sizes(pending.len(), &cuts) {
            let batch = pending.by_ref().take(size);
            session.database().append_rows("events", batch).unwrap();
            let refreshed = session.refresh(&estimator, "events", "m").unwrap();
            let retrained = session
                .train(&estimator, &session.dataset("events").unwrap())
                .unwrap();
            prop_assert_eq!(Linregr::bits(&refreshed), Linregr::bits(&retrained));
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

/// How the view backing the linregr model `name` absorbed on the catch-up
/// `refresh_view` runs before it hands the view over.
fn linregr_view_absorb(db: &Database, name: &str) -> Option<Absorbed> {
    type View = MaterializedAggregate<<LinearRegression as SinglePass>::Aggregate>;
    let view = incremental_view_name(name);
    db.refresh_view(&view, |state| {
        Ok(state
            .as_any_mut()
            .downcast_mut::<View>()
            .unwrap()
            .last_absorb())
    })
    .unwrap()
}

/// The fixed shape's linregr rows, the first `initial` in table `"events"`
/// of a fresh database, a model `"m"` trained incrementally on them; the
/// session and the rest of the rows.
fn linregr_session(initial: usize) -> (Session, Vec<Row>) {
    let shape = Shape::FIXED;
    let (session, pending) = ingest_session(
        shape.schema::<Linregr>(),
        shape.rows::<Linregr>(),
        initial,
        shape.segments,
        shape.chunk_capacity,
    );
    let estimator = LinearRegression::new("y", "x");
    session
        .train_incremental(&estimator, "events", "m")
        .unwrap();
    (session, pending)
}

/// `Database::append_rows` drives registered views itself: the view has
/// absorbed the appended rows before any refresh (its catch-up finds none),
/// so a refresh is a pure re-finalize, and it lands on the retrained model
/// bit for bit and replaces the cataloged one.
#[test]
fn append_rows_auto_absorbs_registered_views() {
    let (session, pending) = linregr_session(37);
    let db = session.database();
    db.append_rows("events", pending).unwrap();
    let caught_up = Some(Absorbed::CaughtUp { rows: 0 });
    assert_eq!(linregr_view_absorb(db, "m"), caught_up);

    let estimator = LinearRegression::new("y", "x");
    let refreshed = session.refresh(&estimator, "events", "m").unwrap();
    let retrained = session
        .train(&estimator, &session.dataset("events").unwrap())
        .unwrap();
    assert_eq!(refreshed.num_rows, 40);
    assert_eq!(Linregr::bits(&refreshed), Linregr::bits(&retrained));
    let cataloged = db.models().get::<LinearRegressionModel>("m").unwrap();
    assert_eq!(Linregr::bits(&cataloged), Linregr::bits(&refreshed));
}

/// A truncated and refilled source table is detected and the view rebuilds
/// from scratch instead of serving stale states.
#[test]
fn truncation_between_refreshes_rebuilds_the_view() {
    let (session, _) = linregr_session(40);
    let refill = Shape {
        rows: 7,
        seed: 8,
        ..Shape::FIXED
    }
    .rows::<Linregr>();
    let db = session.database();
    db.with_table_mut("events", |t| {
        t.truncate();
        t.insert_all(refill)
    })
    .unwrap();
    assert_eq!(
        linregr_view_absorb(db, "m"),
        Some(Absorbed::Rebuilt { rows: 7 })
    );

    let estimator = LinearRegression::new("y", "x");
    let refreshed = session.refresh(&estimator, "events", "m").unwrap();
    let retrained = session
        .train(&estimator, &session.dataset("events").unwrap())
        .unwrap();
    assert_eq!(refreshed.num_rows, 7);
    assert_eq!(Linregr::bits(&refreshed), Linregr::bits(&retrained));
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
        assert_eq!(Linregr::bits(&refreshed), Linregr::bits(&retrained));
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
