//! The conformance kit: every estimator of the registry (`common::Entry`,
//! one per estimator) against every cross-cutting contract it owes.  Each
//! contract is one generic function below, and `conformance!` instantiates
//! it for every estimator it applies to, so a test is named
//! `<estimator>::<contract>` and a failure names both.  A contract an entry
//! does not get is a capability the entry states with its reason
//! (`Entry::REFRESH`, `Entry::PREDICTS`), and `<estimator>::capabilities`
//! fails when the instantiated contracts and the stated capabilities
//! disagree.
//!
//! The proptest contracts draw `proptest::DEFAULT_CASES` shapes per
//! estimator from a seed of their own (`cases`); a failure prints the shape.
//! `cargo test --test conformance grouped_equals` runs one contract for every
//! estimator, `cargo test --test conformance kmeans::` one estimator.

mod common;

use common::{
    assert_grouped_is_each_group_alone, both, cases, dataset, outcome, seen, Entry, Gen, Grouped,
    Refresh, Seen, Shape, Shapes,
};
use madlib::engine::aggregate::CountAggregate;
use madlib::engine::expr::Predicate;
use madlib::engine::{
    Database, Dataset, EngineError, Executor, GroupKey, GroupedModels, MaterializedAggregate, Row,
    Value,
};
use madlib::methods::train::incremental_view_name;
use madlib::methods::{
    Estimator, FeatureScorer, IncrementalEstimator, MethodError, Predictor, Session,
};
use proptest::prelude::Strategy;

/// `Session::train_grouped` ≡ filtering the dataset down to each group and
/// fitting it alone, bit for bit, over NULL, NaN, `-0.0` and mixed-type
/// composite keys, under the `keep` filter or none.  The grouped fit runs
/// under either executor (`Shape::executor`), the groups alone under the
/// serial one, so the grouped path's parallel ≡ serial is held here too.
fn grouped_equals_filter_then_fit<E: Entry>() {
    common::grouped_cases::<E>("grouped", |shape| shape);
}

/// A fit is the same under the parallel and the serial executor: the same
/// bits, or the same error.  (Grouped fits: `grouped_equals_filter_then_fit`.)
fn parallel_equals_serial<E: Entry>() {
    cases::<E>("parallel", |shape| {
        let table = shape.table::<E>();
        let estimator = E::estimator(shape.seed);
        let [parallel, serial] =
            both().map(|executor| outcome::<E>(&estimator.fit(&dataset(&table, &shape, executor))));
        assert_eq!(parallel, serial, "{shape:?}");
        parallel.is_ok()
    });
}

/// A fit over chunks of up to `chunk_capacity` rows is the fit over the same
/// rows one per chunk, where every kernel sees a single row; a single-pass
/// fit is also its aggregate folded row by row (`reference::aggregate`).
fn one_row_chunks_equal_the_fit<E: Entry>() {
    cases::<E>("layout", |shape| {
        let table = shape.table::<E>();
        let single = Shape {
            chunk_capacity: 1,
            ..shape
        };
        let single = single.table_of(shape.schema::<E>(), shape.rows::<E>());
        let estimator = E::estimator(shape.seed);
        let executor = shape.executor();
        let fit = estimator.fit(&dataset(&table, &shape, executor));
        let by_rows = estimator.fit(&dataset(&single, &shape, executor));
        assert_eq!(outcome::<E>(&fit), outcome::<E>(&by_rows), "{shape:?}");
        if let Grouped::SinglePass(reference) = E::GROUPED {
            let reference = reference(&dataset(&table, &shape, Executor::serial()));
            let reference = reference.map_err(MethodError::from);
            assert_eq!(outcome::<E>(&fit), outcome::<E>(&reference), "{shape:?}");
        }
        fit.is_ok()
    });
}

/// A fit refuses, under both executors, an empty table, a filter that
/// selects no row (the table-level checks pass there) and a table holding
/// one of the entry's degenerate rows; an entry for which no row is a
/// well-defined input fits both empty inputs to the same model instead.
fn rejects_empty_and_degenerate_input<E: Entry>() {
    let mut rng = proptest::new_rng(&format!("rejects::{}", std::any::type_name::<E>()));
    for _ in 0..16 {
        let shape = Shapes.sample(&mut rng);
        let estimator = E::estimator(shape.seed);
        let empty = Shape { rows: 0, ..shape }.table::<E>();
        let table = shape.table::<E>();
        let nothing = Dataset::from_table(&table).filter(Predicate::column_gt("keep", 2.0));
        for executor in both() {
            let empty = estimator.fit(&Dataset::from_table(&empty).with_executor(executor));
            let nothing = estimator.fit(&nothing.clone().with_executor(executor));
            match E::REJECTS_EMPTY {
                Ok(()) => assert!(empty.is_err() && nothing.is_err(), "{shape:?}"),
                Err(_) => {
                    assert!(empty.is_ok(), "{shape:?}");
                    assert_eq!(outcome::<E>(&empty), outcome::<E>(&nothing), "{shape:?}");
                }
            }
        }
        for bad in E::degenerate() {
            let mut rows = shape.rows::<E>();
            let at = shape.seed as usize % (rows.len() + 1);
            let keys = [Value::Null, Value::Null, Value::Double(1.0)];
            rows.insert(at, Row::new([&keys[..], &bad].concat()));
            let table = shape.table_of(shape.schema::<E>(), rows);
            for executor in both() {
                let fit = estimator.fit(&dataset(&table, &shape, executor));
                assert!(fit.is_err(), "{bad:?} at row {at} of {shape:?}: {fit:?}");
            }
        }
    }
}

/// The pinned fits report the recorded digests, under both executors.
fn pinned_digests<E: Entry>() {
    for executor in both() {
        let digests: Vec<Vec<u64>> = E::pinned(executor).iter().map(E::bits).collect();
        assert_eq!(digests, E::PINNED, "{executor:?}");
    }
}

/// Groups of one row each (every key unique, one NULL) train one model per
/// row, each the row fitted alone, or fail with the first such fit's error.
fn single_row_groups<E: Entry>() {
    let mut fitted = 0;
    for seed in 0..4 {
        let shape = Shape {
            rows: 6,
            segments: 2 + seed as usize % 2,
            chunk_capacity: 2,
            seed,
            ..Shape::FIXED
        };
        let rows = shape.rows::<E>().into_iter().enumerate().map(|(i, row)| {
            let mut values = row.into_values();
            values[0] = if i == 5 {
                Value::Null
            } else {
                Value::Int(i as i64)
            };
            Row::new(values)
        });
        let table = shape.table_of(shape.schema::<E>(), rows.collect());
        let estimator = E::estimator(seed);
        let dataset = Dataset::from_table(&table);
        let grouped = Session::in_memory(shape.segments)
            .unwrap()
            .train_grouped(&estimator, &dataset.clone().group_by(["g0"]));
        let groups = grouped.as_ref().map_or(6, GroupedModels::len);
        assert_eq!(groups, 6, "{shape:?}");
        if assert_grouped_is_each_group_alone::<E>(&estimator, grouped, &dataset, &["g0"], &shape) {
            fitted += 1;
        }
    }
    assert!(fitted > 0, "no seed fitted single-row groups");
}

/// Appends in installments, a `refresh` after each, then a truncate and
/// refill: each refresh is the retrain (a view-backed estimator) or the fit
/// warm-started from the model cataloged before it (an iterative one), bit
/// for bit, and the catalog serves it.
fn refresh_is_retrain_or_warm_started_fit<E: Entry>()
where
    E::Est: IncrementalEstimator,
{
    cases::<E>("refresh", |shape| {
        let mut rows = shape.rows::<E>();
        let mut g = Gen(!shape.seed);
        let mut pending = rows.split_off(1 + g.below(rows.len())).into_iter();
        let db = Database::new(shape.segments).unwrap();
        let table = shape.table_of(shape.schema::<E>(), rows);
        db.register_table("events", table).unwrap();
        let session = Session::new(db.clone()).with_executor(shape.executor());
        let estimator = E::estimator(shape.seed);
        if session
            .train_incremental(&estimator, "events", "m")
            .is_err()
        {
            return false;
        }
        let refresh = || {
            let previous = db.models().get::<E::Model>("m");
            let expected = match (E::REFRESH, previous) {
                (Refresh::WarmStart(warm), Ok(previous)) => {
                    session.train(&warm(&estimator, &previous), &session.dataset("events")?)
                }
                _ => session.train(&estimator, &session.dataset("events")?),
            };
            let refreshed = session.refresh(&estimator, "events", "m");
            assert_eq!(
                outcome::<E>(&refreshed),
                outcome::<E>(&expected),
                "{shape:?}"
            );
            let served = db.models().get::<E::Model>("m").unwrap();
            if let Ok(model) = &refreshed {
                assert_eq!(seen::<E>(&served), seen::<E>(model), "{shape:?}");
            }
            Ok::<_, MethodError>(refreshed.is_ok())
        };
        let mut fitted = true;
        while pending.len() > 0 {
            let batch: Vec<Row> = pending.by_ref().take(1 + g.below(8)).collect();
            db.append_rows("events", batch).unwrap();
            fitted &= refresh().unwrap();
        }
        let refill = shape.rows::<E>().into_iter().skip(g.below(shape.rows));
        db.with_table_mut("events", |t| {
            t.truncate();
            t.insert_all(refill)
        })
        .unwrap();
        refresh().unwrap() && fitted
    });
}

/// A catalog entry no estimator trains.
struct Foreign;

/// A `refresh` over a catalog entry it cannot refresh — a model of another
/// type, a grouped registry of its own models and, for a view-backed
/// estimator, a view of another aggregate under the model's name — is a
/// typed error that leaves the catalog and the views as they were; over a
/// name that holds nothing it is the fit, cataloged.
fn refresh_over_another_entry_is_an_error<E: Entry>()
where
    E::Est: IncrementalEstimator,
{
    let db = Database::new(3).unwrap();
    db.register_table("events", Shape::FIXED.table::<E>())
        .unwrap();
    let session = Session::new(db.clone());
    let estimator = E::estimator(Shape::FIXED.seed);
    let events = session.dataset("events").unwrap();
    let grouped = session.train_grouped(&estimator, &events.group_by(["g0"]));
    db.models().register_grouped("grouped", grouped.unwrap());
    db.models().register("foreign", Foreign);
    session
        .train_incremental(&estimator, "events", "viewed")
        .unwrap();
    let count = MaterializedAggregate::new(CountAggregate, &Executor::new());
    let view = incremental_view_name("viewed");
    db.register_view(&view, "events", Box::new(count)).unwrap();
    let catalog = || {
        let grouped = db.models().get_grouped::<E::Model>("grouped").unwrap();
        let grouped: Vec<Seen> = grouped.iter().map(|(_, model)| seen::<E>(model)).collect();
        let viewed = seen::<E>(&db.models().get::<E::Model>("viewed").unwrap());
        let views =
            ["grouped", "foreign", "viewed"].map(|n| db.has_view(&incremental_view_name(n)));
        let foreign = db.models().get::<Foreign>("foreign").is_ok();
        (db.models().list(), grouped, viewed, views, foreign)
    };
    let before = catalog();
    let mut names = vec!["foreign", "grouped"];
    if matches!(E::REFRESH, Refresh::ViewBacked) {
        names.push("viewed"); // a warm start reads the model, never a view
    }
    for name in names {
        match (name, session.refresh(&estimator, "events", name)) {
            ("foreign", Err(MethodError::Engine(EngineError::TypeMismatch { .. }))) => {}
            ("grouped", Err(MethodError::Engine(EngineError::InvalidArgument { .. }))) => {}
            ("viewed", Err(MethodError::Engine(EngineError::InvalidArgument { message }))) => {
                let different = "\"viewed\" holds a different aggregate type";
                assert!(message.contains(different), "{message}");
            }
            (_, other) => panic!("{name}: expected a typed error, got {other:?}"),
        }
        assert!(catalog() == before, "{name} changed the catalog");
    }
    // Only a name that holds nothing trains from scratch.
    let fresh = session.refresh(&estimator, "events", "fresh");
    let fit = session.train(&estimator, &session.dataset("events").unwrap());
    assert_eq!(outcome::<E>(&fresh), outcome::<E>(&fit));
    let served = db.models().get::<E::Model>("fresh").unwrap();
    assert_eq!(Ok(seen::<E>(&served)), outcome::<E>(&fit));
}

/// `score` ≡ the per-row predict plan, and `score_per_group` over the
/// grouped fit ≡ each row predicted by its group's model, prediction bits
/// equal, on the shape's rows with every fourth feature vector NULL, under
/// both executors, under the shape's filter (or none).
fn score_equals_per_row_predict<E: Entry>()
where
    E::Model: Predictor,
{
    fn predict<P: Predictor>(
        row: &Row,
        schema: &madlib::engine::Schema,
        model: &P,
    ) -> madlib::engine::Result<Value> {
        let x = row.get_named(schema, "x")?;
        match x {
            Value::Null => Ok(Value::Null),
            x => model
                .predict_value(x.as_double_array()?)
                .map_err(EngineError::invalid),
        }
    }
    fn predictions(scored: madlib::engine::Result<Vec<Value>>) -> Result<Vec<String>, String> {
        let text = |v: &Value| match v {
            Value::Double(v) => format!("{:x}", v.to_bits()),
            other => format!("{other:?}"),
        };
        scored
            .map(|values| values.iter().map(text).collect())
            .map_err(|e| e.to_string())
    }
    cases::<E>("score", |shape| {
        let table = shape.table::<E>();
        let estimator = E::estimator(shape.seed);
        let Ok(model) = estimator.fit(&Dataset::from_table(&table)) else {
            return false;
        };
        let columns = shape.key_columns();
        let grouped = estimator.fit_grouped(&Dataset::from_table(&table).group_by(columns.clone()));
        let schema = shape.schema::<E>();
        let x = schema.index_of("x").unwrap();
        let rows = shape.rows::<E>().into_iter().enumerate().map(|(i, row)| {
            let mut values = row.into_values();
            if i % 4 == 1 {
                values[x] = Value::Null;
            }
            Row::new(values)
        });
        let scoring = shape.table_of(schema, rows.collect());
        let plan = dataset(&scoring, &shape, Executor::serial());
        let plan = predictions(plan.map_rows(|row, schema| predict(row, schema, &model)));
        let routed_plan = grouped.as_ref().ok().map(|models| {
            let plan = dataset(&scoring, &shape, Executor::serial());
            predictions(plan.map_rows(|row, schema| {
                let key = GroupKey::from_values(&row.values()[..columns.len()]);
                predict(row, schema, models.get_key(&key).unwrap())
            }))
        });
        for executor in both() {
            let dataset = dataset(&scoring, &shape, executor);
            let scored = dataset.score(&FeatureScorer::new(&model, "x"));
            assert_eq!(predictions(scored), plan, "{shape:?}, {executor:?}");
            let (Ok(models), Some(routed_plan)) = (&grouped, &routed_plan) else {
                continue;
            };
            let scorers = models
                .iter()
                .map(|(k, m)| (k.clone(), FeatureScorer::new(m, "x")));
            let scorers = GroupedModels::new(scorers.collect()).unwrap();
            let routed = dataset.clone().group_by(columns.clone());
            let routed = routed.score_per_group("m", &scorers);
            assert_eq!(&predictions(routed), routed_plan, "{shape:?}, {executor:?}");
        }
        true
    });
}

/// The instantiated contract groups are the ones the entry's capabilities
/// allow, and a view-backed refresh is what a single-pass estimator has.
fn capabilities<E: Entry>(groups: &[&str]) {
    let refresh = !matches!(E::REFRESH, Refresh::None(_));
    assert_eq!(
        groups.contains(&"refresh"),
        refresh,
        "REFRESH vs {groups:?}"
    );
    assert_eq!(
        groups.contains(&"score"),
        E::PREDICTS.is_ok(),
        "PREDICTS vs {groups:?}"
    );
    let single_pass = matches!(E::GROUPED, Grouped::SinglePass(_));
    assert_eq!(matches!(E::REFRESH, Refresh::ViewBacked), single_pass);
}

/// `name: Entry [groups];` — a module `name` holding every estimator's
/// contracts, the groups' contracts (`refresh`, `score`) and `capabilities`.
macro_rules! conformance {
    ($($name:ident: $entry:ident [$($group:ident),*];)*) => {$(
        mod $name {
            type E = super::common::$entry;
            contract!(
                grouped_equals_filter_then_fit,
                parallel_equals_serial,
                one_row_chunks_equal_the_fit,
                rejects_empty_and_degenerate_input,
                pinned_digests,
                single_row_groups
            );
            $(contract!($group);)*
            #[test]
            fn capabilities() {
                super::capabilities::<E>(&[$(stringify!($group)),*]);
            }
        }
    )*};
}

macro_rules! contract {
    (refresh) => {
        contract!(refresh_is_retrain_or_warm_started_fit, refresh_over_another_entry_is_an_error);
    };
    (score) => {
        contract!(score_equals_per_row_predict);
    };
    ($($contract:ident),+) => {$(
        #[test]
        fn $contract() {
            super::$contract::<E>();
        }
    )+};
}

conformance! {
    linregr: Linregr [refresh, score];
    logregr: Logregr [refresh, score];
    naive_bayes: NaiveBayesEntry [refresh, score];
    kmeans: KMeansEntry [refresh, score];
    igd: Igd [refresh];
    svm: Svm [score];
    decision_tree: Tree [score];
    lowrank: LowRank [];
    lda: LdaEntry [];
    apriori: AprioriEntry [];
    crf: Crf [];
    profiler: Profile [refresh];
}
