//! End-to-end durability: recovery hands analytics a bit-identical world.
//!
//! The engine-level crash harness (`crates/engine/tests/durability.rs`)
//! proves recovery reproduces the committed table prefix byte-for-byte.
//! These tests close the loop at the analytics layer: models trained over a
//! recovered database are bit-for-bit the models trained before the crash,
//! incremental views re-registered after recovery refresh to the same bits,
//! and appending *after* recovery continues exactly as if the crash never
//! happened.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use madlib::engine::aggregate::SumAggregate;
use madlib::engine::table::Distribution;
use madlib::engine::{
    row, Absorbed, Column, ColumnType, Database, Executor, MaterializedAggregate, RebuildReason,
    Row, Schema, Table, Value, ViewOutcome,
};
use madlib::methods::classify::NaiveBayes;
use madlib::methods::datasets::labeled_point_schema;
use madlib::methods::regress::LinearRegression;
use madlib::methods::train::incremental_view_name;
use madlib::methods::Session;
use proptest::prelude::*;

mod common;

use common::bits;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let id = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "madlib_e2e_durability_{tag}_{}_{id}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Deterministic labeled points: y = 2 + 3·x₁ − x₂ plus a fixed "noise"
/// term, so the fitted coefficients are nontrivial but reproducible.
fn labeled_rows(range: std::ops::Range<i64>) -> Vec<Row> {
    range
        .map(|i| {
            let x1 = (i as f64) * 0.25;
            let x2 = ((i * 7) % 11) as f64 - 5.0;
            let noise = ((i * 13) % 17) as f64 * 0.01;
            let y = 2.0 + 3.0 * x1 - x2 + noise;
            row![y, vec![1.0, x1, x2]]
        })
        .collect()
}

fn train_coef_bits(db: &Database) -> Vec<u64> {
    let session = Session::new(db.clone());
    let dataset = session.database().dataset("points").unwrap();
    let model = session
        .train(&LinearRegression::new("y", "x"), &dataset)
        .unwrap();
    bits(&model.coef)
}

/// A model trained over the recovered database is bit-for-bit the model
/// trained before the crash, and appends after recovery continue exactly
/// as on a database that never crashed — with and without a checkpoint in
/// the history.
#[test]
fn recovered_tables_train_bit_identically() {
    for checkpoint in [false, true] {
        let scratch = ScratchDir::new("train");
        // A control database that never goes down.
        let control = Database::new(2).unwrap();
        control
            .create_table_with_chunk_capacity("points", labeled_point_schema(), 8)
            .unwrap();
        control.append_rows("points", labeled_rows(0..40)).unwrap();

        let before;
        {
            let db = Database::open(scratch.path(), 2).unwrap();
            db.create_table_with_chunk_capacity("points", labeled_point_schema(), 8)
                .unwrap();
            db.append_rows("points", labeled_rows(0..25)).unwrap();
            if checkpoint {
                db.checkpoint().unwrap();
            }
            db.append_rows("points", labeled_rows(25..40)).unwrap();
            before = train_coef_bits(&db);
            assert_eq!(
                before,
                train_coef_bits(&control),
                "durable and in-memory databases must agree pre-crash"
            );
            // Crash: the database is dropped with a dirty WAL tail.
        }
        let recovered = Database::recover(scratch.path()).unwrap();
        assert_eq!(
            train_coef_bits(&recovered),
            before,
            "checkpoint={checkpoint}: retrain after recovery diverged"
        );

        // Life goes on: appends after recovery match the control.
        recovered
            .append_rows("points", labeled_rows(40..60))
            .unwrap();
        control.append_rows("points", labeled_rows(40..60)).unwrap();
        assert_eq!(
            train_coef_bits(&recovered),
            train_coef_bits(&control),
            "checkpoint={checkpoint}: post-recovery appends diverged"
        );
    }
}

/// Incremental training over a recovered database: a fresh
/// `train_incremental` over the recovered table produces the same bits as
/// the pre-crash refreshed model, and further installments keep agreeing
/// with a never-crashed control.
#[test]
fn incremental_models_resume_bit_identically_after_recovery() {
    let scratch = ScratchDir::new("incr");
    let refreshed_bits;
    {
        let db = Database::open(scratch.path(), 2).unwrap();
        db.create_table_with_chunk_capacity("points", labeled_point_schema(), 8)
            .unwrap();
        db.append_rows("points", labeled_rows(0..20)).unwrap();
        let session = Session::new(db.clone());
        let est = LinearRegression::new("y", "x");
        session.train_incremental(&est, "points", "lin").unwrap();
        db.append_rows("points", labeled_rows(20..32)).unwrap();
        let refreshed = session.refresh(&est, "points", "lin").unwrap();
        refreshed_bits = bits(&refreshed.coef);
    }
    let recovered = Database::recover(scratch.path()).unwrap();
    // Views and cataloged models are rebuilt from the recovered tables:
    // a fresh incremental train must land on the same bits the refresh
    // reached before the crash (the single-pass bit-identity contract).
    let session = Session::new(recovered.clone());
    let est = LinearRegression::new("y", "x");
    let retrained = session.train_incremental(&est, "points", "lin").unwrap();
    assert_eq!(bits(&retrained.coef), refreshed_bits);

    // And refreshes keep working across the recovery boundary.
    let control = Database::new(2).unwrap();
    control
        .create_table_with_chunk_capacity("points", labeled_point_schema(), 8)
        .unwrap();
    control.append_rows("points", labeled_rows(0..44)).unwrap();
    recovered
        .append_rows("points", labeled_rows(32..44))
        .unwrap();
    let refreshed = session.refresh(&est, "points", "lin").unwrap();
    let control_session = Session::new(control);
    let full = control_session
        .train(
            &LinearRegression::new("y", "x"),
            &control_session.database().dataset("points").unwrap(),
        )
        .unwrap();
    assert_eq!(bits(&refreshed.coef), bits(&full.coef));
}

/// An adopted view's first absorb folds in exactly the rows the recovery
/// report names as its suffix: it catches up, it does not rebuild.
#[test]
fn an_adopted_view_catches_up_exactly_its_suffix() {
    let scratch = ScratchDir::new("suffix");
    let est = LinearRegression::new("y", "x");
    {
        let db = Database::open(scratch.path(), 2).unwrap();
        db.create_table_with_chunk_capacity("points", labeled_point_schema(), 8)
            .unwrap();
        db.append_rows("points", labeled_rows(0..20)).unwrap();
        let session = Session::new(db.clone());
        session.train_incremental(&est, "points", "lin").unwrap();
        db.checkpoint().unwrap();
        db.append_rows("points", labeled_rows(20..33)).unwrap();
    }
    let db = Database::recover(scratch.path()).unwrap();
    let view = incremental_view_name("lin");
    let state = MaterializedAggregate::new(est, &Executor::new());
    db.register_view(&view, "points", Box::new(state)).unwrap();
    let absorbed = db
        .refresh_view(&view, |state| {
            let state = state
                .as_any()
                .downcast_ref::<MaterializedAggregate<LinearRegression>>();
            Ok(state.expect("linregr view").last_absorb())
        })
        .unwrap();
    let report = db.recovery_report().unwrap();
    let outcome = report.views.iter().find(|(name, _)| *name == view);
    assert_eq!(
        outcome.map(|v| v.1),
        Some(ViewOutcome::Adopted { suffix_rows: 13 })
    );
    assert_eq!(absorbed, Some(Absorbed::CaughtUp { rows: 13 }));
}

/// Raw materialized views re-registered over a recovered database refresh
/// to the same result as before the crash, and keep absorbing appends.
#[test]
fn materialized_views_rebuild_identically_after_recovery() {
    let scratch = ScratchDir::new("views");
    let before;
    {
        let db = Database::open(scratch.path(), 2).unwrap();
        db.create_table_with_chunk_capacity("points", labeled_point_schema(), 8)
            .unwrap();
        db.append_rows("points", labeled_rows(0..30)).unwrap();
        db.register_view(
            "y_sum",
            "points",
            Box::new(MaterializedAggregate::new(
                SumAggregate::new("y"),
                &Executor::new(),
            )),
        )
        .unwrap();
        before = db
            .refresh_view("y_sum", |state| {
                state
                    .as_any_mut()
                    .downcast_mut::<MaterializedAggregate<SumAggregate>>()
                    .expect("sum view")
                    .finalize()
            })
            .unwrap();
    }
    let recovered = Database::recover(scratch.path()).unwrap();
    recovered
        .register_view(
            "y_sum",
            "points",
            Box::new(MaterializedAggregate::new(
                SumAggregate::new("y"),
                &Executor::new(),
            )),
        )
        .unwrap();
    let refresh = |db: &Database| {
        db.refresh_view("y_sum", |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<SumAggregate>>()
                .expect("sum view")
                .finalize()
        })
        .unwrap()
    };
    assert_eq!(refresh(&recovered).to_bits(), before.to_bits());

    // The rebuilt view keeps absorbing post-recovery appends; spot-check
    // against a direct aggregate over the same table.
    recovered
        .append_rows("points", labeled_rows(30..41))
        .unwrap();
    let after = refresh(&recovered);
    let expect = {
        let session = Session::new(recovered.clone());
        let sum: f64 = session
            .database()
            .dataset("points")
            .unwrap()
            .aggregate(&SumAggregate::new("y"))
            .unwrap();
        sum
    };
    assert_eq!(after.to_bits(), expect.to_bits());

    // Null-bearing appends survive a second crash/recover cycle too.
    recovered
        .append_rows("points", [Row::new(vec![Value::Null, Value::Null])])
        .unwrap();
    recovered.checkpoint().unwrap();
    let mark = refresh(&recovered);
    drop(recovered);
    let again = Database::recover(scratch.path()).unwrap();
    again
        .register_view(
            "y_sum",
            "points",
            Box::new(MaterializedAggregate::new(
                SumAggregate::new("y"),
                &Executor::new(),
            )),
        )
        .unwrap();
    assert_eq!(refresh(&again).to_bits(), mark.to_bits());
}

/// An iterative fit reads the catalog and writes nothing, to it or to the
/// log: logregr, k-means and IGD fits on a durable database — one of them
/// failing inside its first iteration, one fitting several groups on the
/// per-group gather path — leave `list_tables()` and `wal_durable_len()` as
/// they found them, and every fit that returns ran and converged.
#[test]
fn iterative_fits_leave_the_catalog_and_the_log_as_found() {
    use madlib::convex::objectives::LeastSquaresObjective;
    use madlib::convex::{IgdConfig, IgdEstimator, StepSchedule};
    use madlib::methods::cluster::KMeans;
    use madlib::methods::datasets::{
        gaussian_blobs, linear_regression_data, logistic_regression_data,
    };
    use madlib::methods::regress::LogisticRegression;

    let scratch = ScratchDir::new("fits");
    let db = Database::open(scratch.path(), 2).unwrap();
    let logistic = logistic_regression_data(300, 3, 2, 3).unwrap().table;
    let blobs = gaussian_blobs(300, 3, 2, 1.0, 2, 4).unwrap().table;
    let linear = linear_regression_data(300, 3, 0.1, 2, 5).unwrap().table;
    let mut nan = logistic.clone();
    nan.insert(row![1.0, vec![0.5, f64::NAN, -0.25]]).unwrap();
    let grouped = Schema::new(vec![
        Column::new("g", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    db.create_table("grouped", grouped).unwrap();
    let keyed = logistic.collect_rows().into_iter().enumerate();
    let keyed =
        keyed.map(|(i, r)| Row::new([vec![Value::Int(i as i64 % 3)], r.into_values()].concat()));
    db.append_rows("grouped", keyed).unwrap();
    for (name, table) in [
        ("logistic", logistic),
        ("blobs", blobs),
        ("linear", linear),
        ("nan", nan),
    ] {
        db.register_table(name, table).unwrap();
    }

    let session = Session::new(db.clone());
    let (tables, log) = (db.list_tables(), db.wal_durable_len());
    assert!(log.is_some());
    let unchanged = |fit: &str| {
        assert_eq!(db.list_tables(), tables, "{fit} changed the catalog");
        assert_eq!(db.wal_durable_len(), log, "{fit} wrote to the log");
    };
    let dataset = |name: &str| session.dataset(name).unwrap();

    let irls = LogisticRegression::new("y", "x");
    let model = session.train(&irls, &dataset("logistic")).unwrap();
    unchanged("logregr");
    assert!(model.converged && model.num_iterations >= 1);

    let failed = session.train(&irls, &dataset("nan"));
    unchanged("a failing logregr");
    assert!(failed.is_err(), "{failed:?}");

    let models = session
        .train_grouped(&irls, &dataset("grouped").group_by(["g"]))
        .unwrap();
    unchanged("grouped logregr");
    assert_eq!(models.len(), 3);
    for (key, model) in models.iter() {
        assert!(model.converged && model.num_iterations >= 1, "{key:?}");
    }

    let model = session
        .train(&KMeans::new("coords", 3).unwrap(), &dataset("blobs"))
        .unwrap();
    unchanged("k-means");
    assert!(model.converged && model.iterations >= 1);

    let igd = IgdEstimator::new(LeastSquaresObjective::new("y", "x", 3)).with_config(IgdConfig {
        max_epochs: 200,
        tolerance: 1e-6,
        schedule: StepSchedule::Constant(0.05),
    });
    let summary = session.train(&igd, &dataset("linear")).unwrap();
    unchanged("IGD");
    assert!(summary.converged && summary.epochs >= 1);
}

/// One table both single-pass estimators read: linear regression `y ~ x`,
/// naive Bayes `label ~ x`.
fn mixed_schema() -> Schema {
    Schema::new(vec![
        Column::new("id", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("label", ColumnType::Text),
        Column::new("x", ColumnType::DoubleArray),
    ])
}

fn mixed_rows(range: std::ops::Range<i64>) -> Vec<Row> {
    let labels = ["north", "south", "east"];
    labeled_rows(range.clone())
        .into_iter()
        .zip(range)
        .map(|(row, i)| {
            let [y, x] = [row.get(0).clone(), row.get(1).clone()];
            Row::new(vec![
                Value::Int(i),
                y,
                Value::Text(labels[i as usize % 3].into()),
                x,
            ])
        })
        .collect()
}

/// The table a schedule registers and replaces: `segments` segments, hashed
/// on `id` or round-robin, `capacity` rows per chunk.
fn mixed_table(layout: (usize, bool, usize), range: std::ops::Range<i64>) -> Table {
    let (segments, hashed, capacity) = layout;
    let distribution = match hashed {
        true => Distribution::HashColumn("id".into()),
        false => Distribution::RoundRobin,
    };
    let mut table = Table::with_distribution(mixed_schema(), segments, distribution)
        .unwrap()
        .with_chunk_capacity(capacity)
        .unwrap();
    table.insert_all(mixed_rows(range)).unwrap();
    table
}

/// `Ok` results by their `Debug` rendering (every `f64` in shortest
/// round-trip form, so equal strings are equal bits); any error as one.
fn rendered<M: std::fmt::Debug, E>(result: Result<M, E>) -> Option<String> {
    result.ok().map(|model| format!("{model:?}"))
}

proptest! {
    /// Restart without rebuild, held to the rebuild: a random schedule of
    /// appends (batches that cross chunk boundaries), checkpoints,
    /// truncates, replaces and refreshes under both incremental estimators,
    /// then a crash at a random durable WAL offset.  After `recover`,
    /// `train_incremental` must give exactly the bits `train` gives on the
    /// recovered table, and the report must say `Adopted` — with the rows
    /// replayed past the checkpoint as its suffix — exactly when the last
    /// checkpoint carried the views and no truncate or replace of their
    /// table was replayed after it.
    #[test]
    fn adopted_views_finalize_to_the_retrain_bits(
        layout in (1usize..5, 0u8..2, 2usize..6),
        ops in prop::collection::vec((0u8..10, 0usize..12), 2..12),
        crash in 250u64..1001,
    ) {
        let layout = (layout.0, layout.1 == 1, layout.2);
        let executor = Executor::new();
        let (lin, nb) = (LinearRegression::new("y", "x"), NaiveBayes::new("label", "x"));
        let scratch = ScratchDir::new("adopt");
        let db = Database::open(scratch.path(), 2).unwrap();
        db.register_table("events", mixed_table(layout, 0..7)).unwrap();
        let session = Session::new(db.clone()).with_executor(executor);
        session.train_incremental(&lin, "events", "lin").unwrap();
        session.train_incremental(&nb, "events", "nb").unwrap();
        db.checkpoint().unwrap();

        // The model of what recovery will find: the rows the last checkpoint
        // carried the views at (none when it did not carry them), and per
        // logged operation since, its durable end and whether it gave the
        // table a new incarnation.
        let (mut rows, mut next, mut current) = (7u64, 7i64, true);
        let mut carried = Some(rows);
        let mut floor = db.wal_durable_len().unwrap();
        let mut logged: Vec<(u64, bool)> = Vec::new();
        for (kind, n) in ops {
            let fresh = next..next + n as i64;
            match kind {
                0..=4 => {
                    db.append_rows("events", mixed_rows(fresh)).unwrap();
                    (rows, current) = (rows + n as u64, true);
                }
                5 => {
                    db.checkpoint().unwrap();
                    carried = current.then_some(rows);
                    floor = db.wal_durable_len().unwrap();
                    logged.clear();
                    continue;
                }
                6 => {
                    db.truncate_table("events").unwrap();
                    (rows, current) = (0, false);
                }
                7 => {
                    db.replace_table("events", mixed_table(layout, fresh)).unwrap();
                    (rows, current) = (n as u64, false);
                }
                _ => {
                    // An empty table refreshes to an error, after the absorb.
                    let _ = session.refresh(&lin, "events", "lin");
                    let _ = session.refresh(&nb, "events", "nb");
                    current = true;
                    continue;
                }
            }
            next += n as i64;
            logged.push((db.wal_durable_len().unwrap(), kind >= 6));
        }
        let end = db.wal_durable_len().unwrap();
        drop((session, db));
        let cut = floor + (end - floor) * crash / 1000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(scratch.path().join("wal.log"))
            .and_then(|f| f.set_len(cut))
            .unwrap();
        let replayed: Vec<bool> = logged.iter().filter(|(len, _)| *len <= cut).map(|l| l.1).collect();

        let db = Database::recover(scratch.path()).unwrap();
        let session = Session::new(db.clone()).with_executor(executor);
        let recovered_rows = db.table("events").unwrap().row_count() as u64;
        let dataset = session.dataset("events").unwrap();
        prop_assert_eq!(
            rendered(session.train_incremental(&lin, "events", "lin")),
            rendered(session.train(&lin, &dataset))
        );
        prop_assert_eq!(
            rendered(session.train_incremental(&nb, "events", "nb")),
            rendered(session.train(&nb, &dataset))
        );

        let report = db.recovery_report().unwrap();
        prop_assert_eq!(report.wal_frames_replayed, replayed.len() as u64);
        let expect = match carried {
            Some(at) if !replayed.contains(&true) => Some(ViewOutcome::Adopted {
                suffix_rows: recovered_rows - at,
            }),
            Some(_) => Some(ViewOutcome::Rebuilt { reason: RebuildReason::Generation }),
            None => None,
        };
        for model in ["lin", "nb"] {
            let view = incremental_view_name(model);
            let outcome = report.views.iter().find(|(name, _)| *name == view).map(|v| v.1);
            prop_assert_eq!(outcome, expect);
        }
    }
}
