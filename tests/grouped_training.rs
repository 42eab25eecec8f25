//! Grouped training beyond the per-estimator contracts (those are the
//! conformance kit's, `tests/conformance.rs`): the grouped contract on each
//! key arity of the single-pass (linregr) and the gather (logregr) path, bad
//! grouping columns and a panicking per-group fit are typed errors, and
//! concurrent grouped trainings on one session agree with a serial one.

mod common;

use common::{grouped_cases, Entry, Linregr, Logregr, Shape};
use madlib::engine::{Dataset, Executor};
use madlib::methods::{Estimator, Session};

/// The kit's grouped contract (`common::grouped_cases`), every drawn shape
/// grouped by `g0` alone: NULL, NaN, `-0.0`, int and text keys through
/// linregr's single-pass grouped scan, under the `keep` filter or none.
#[test]
fn grouped_linregr_equals_filter_then_fit() {
    grouped_cases::<Linregr>("one key column", |shape| Shape {
        composite: false,
        ..shape
    });
}

/// The same through logregr's per-group gather, which must keep each
/// group's segment placement and row order for IRLS to be bit-identical.
#[test]
fn grouped_logregr_equals_filter_then_fit() {
    grouped_cases::<Logregr>("one key column", |shape| Shape {
        composite: false,
        ..shape
    });
}

/// The grouped contract with every drawn shape grouped by a composite key of
/// two or three mixed-type columns (`g0` of the shape's key kind, the double
/// `g1` cycling `0.0`, `-0.0`, NaN and NULL, then `keep`): one model per
/// distinct tuple, found again by its values, on the single-pass path.
#[test]
fn grouped_composite_linregr_equals_filter_then_fit() {
    grouped_cases::<Linregr>("composite key", |shape| Shape {
        composite: true,
        ..shape
    });
}

/// Composite keys through the gather path.
#[test]
fn grouped_composite_logregr_equals_filter_then_fit() {
    grouped_cases::<Logregr>("composite key", |shape| Shape {
        composite: true,
        ..shape
    });
}

/// Grouping-column validation surfaces as typed errors through the whole
/// training stack — unknown names and duplicates cannot silently mis-group —
/// on the single-pass (linregr) and the gather (logregr) path alike.
#[test]
fn train_grouped_rejects_bad_grouping_columns() {
    let table = Shape::FIXED.table::<Linregr>();
    let session = Session::in_memory(3).unwrap();
    let bad = [
        (vec!["nope"], "column not found"),
        (vec!["g0", "nope"], "column not found"),
        (vec!["g0", "g0"], "duplicate"),
    ];
    for (columns, message) in bad {
        let grouped = Dataset::from_table(&table).group_by(columns);
        let single_pass = session.train_grouped(&Linregr::estimator(0), &grouped);
        let gather = session.train_grouped(&Logregr::estimator(0), &grouped);
        for error in [single_pass.unwrap_err(), gather.unwrap_err()] {
            assert!(error.to_string().contains(message), "{error}");
        }
    }
    // Valid multi-column grouping works end to end: one model per tuple.
    let grouped = Dataset::from_table(&table).group_by(["g0", "g1"]);
    let models = session
        .train_grouped(&Linregr::estimator(0), &grouped)
        .unwrap();
    assert!(models.len() > 4 && models.keys().all(|key| key.arity() == 2));
}

/// An estimator whose per-group fit panics outright, standing in for a bug
/// inside a method implementation.
struct PanicingEstimator;

impl Estimator for PanicingEstimator {
    type Model = ();

    fn fit(&self, _dataset: &Dataset) -> madlib::methods::Result<Self::Model> {
        panic!("deliberate per-group fit explosion");
    }
}

/// A panic inside one group's fit must not unwind through the parallel
/// per-group scheduler: `train_grouped` catches it on the worker and
/// surfaces it as the typed `WorkerPanicked` engine error, payload message
/// included, with parallel workers and on the calling thread alike.
#[test]
fn panicking_group_fit_surfaces_typed_worker_panic() {
    let table = Shape::FIXED.table::<Logregr>();
    for executor in [Executor::new(), Executor::serial()] {
        let session = Session::in_memory(table.num_segments())
            .unwrap()
            .with_executor(executor);
        let err = session
            .train_grouped(
                &PanicingEstimator,
                &Dataset::from_table(&table).group_by(["g0"]),
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
fn concurrent_train_grouped_calls_agree_with_a_serial_one() {
    let table = Shape::FIXED.table::<Logregr>();
    let session = Session::in_memory(table.num_segments()).unwrap();
    let estimator = Logregr::estimator(0);
    let train = || {
        let grouped = Dataset::from_table(&table).group_by(["g0"]);
        let models = session.train_grouped(&estimator, &grouped).unwrap();
        let models = models
            .iter()
            .map(|(key, model)| (key.clone(), Logregr::bits(model)));
        models.collect::<Vec<_>>()
    };
    let serial = train();
    assert_eq!(serial.len(), 4);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(train)).collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), serial);
        }
    });
}
