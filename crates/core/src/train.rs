//! The uniform training convention: `Session::train(estimator, dataset)`.
//!
//! MADlib's interface contract (paper Sections 3–4) is that every method is
//! called the same way — `method_train(source_table, output, dep_var,
//! indep_vars, grouping_cols)` — and that supplying `grouping_cols` trains
//! one model *per group* in the same call.  This module is the Rust shape of
//! that contract:
//!
//! * [`Estimator`] — one trait, one signature, for every trainable method:
//!   `fit(&self, dataset)`.  The dataset carries the rows (source table +
//!   `WHERE` + `grouping_cols`, see [`madlib_engine::dataset::Dataset`]) and
//!   the [`Executor`] its scans run under; a method gets its rows and its
//!   arguments and nothing else, as in the paper's
//!   `method_train(source_table, …)`.
//! * [`Session`] — the execution context around a fit: the default
//!   [`Executor`] and the [`Database`] whose tables and model catalog
//!   incremental training ([`IncrementalEstimator`]) reads and writes.  It
//!   never reaches [`Estimator::fit`]; [`Session::train`] only binds its
//!   executor as the dataset's default.
//! * [`Session::train`] — fits one model over an ungrouped dataset.
//! * [`Session::train_grouped`] — the paper's `grouping_cols` scenario: one
//!   model per distinct group key, returned as [`GroupedModels`] — the
//!   engine's one grouped registry, which the model catalog stores and
//!   grouped scoring serves as it is — keyed by the typed
//!   [`GroupKey`](madlib_engine::GroupKey)s of the grouped scan.
//!   `grouping_cols` is an arbitrary column list, so `group_by(["a", "b"])`
//!   trains one model per composite `(a, b)` tuple.  Single-pass aggregating
//!   estimators (linear regression, naive Bayes, the profiler) override
//!   [`Estimator::fit_grouped`] to train *all* groups in one
//!   segment-parallel [`Dataset::aggregate_per_group`] pass; iterative
//!   estimators use the default per-group gather, which splits the input
//!   into per-group tables **preserving each row's segment** so every
//!   per-group fit is bitwise identical to filtering the source down to
//!   that group and fitting it alone (property-tested in
//!   `tests/grouped_training.rs`).
//!
//! # Parallel grouped fitting and determinism
//!
//! Both grouped paths fan the per-group work out over the engine's
//! work-stealing worker pool ([`madlib_engine::scan`]): the single-pass
//! path parallelizes per-group *finalize*, the gather path parallelizes the
//! per-group *fits* themselves.  The determinism contract is that each
//! group's fit/finalize is a pure function of that group's rows, so
//! scheduling only decides **which worker** computes a group, never the
//! result — outputs land in per-group slots and are reassembled in key
//! order, making grouped training bit-for-bit identical to the serial
//! per-group loop (and to filter-then-fit), property-tested in
//! `tests/grouped_training.rs`.  A panic inside one group's fit surfaces as
//! a typed [`madlib_engine::EngineError::WorkerPanicked`] error instead of
//! poisoning the whole training call.

use crate::error::{MethodError, Result};
use madlib_engine::dataset::Dataset;
use madlib_engine::materialize::MaterializedAggregate;
use madlib_engine::{Aggregate, Database, Executor};

/// One model per group, sorted by the typed `GroupKey`s of the grouped scan
/// (NULL group first): the engine's one grouped registry, which the model
/// catalog stores and `Dataset::score_per_group` serves as it is.
pub use madlib_engine::group::GroupedModels;

/// Execution context for training: the executor that runs scans and the
/// database holding the tables [`Session::dataset`] opens and the models
/// incremental training catalogs.
///
/// A session is cheap to clone ([`Database`] is a shared handle and
/// [`Executor`] is `Copy`).  [`Session::train`] / [`Session::train_grouped`]
/// supply the session's executor as the dataset's *default*: a dataset that
/// never called [`Dataset::with_executor`] runs under the session's
/// executor, while an explicitly bound one keeps its own (so a comparison
/// can pin either side).
#[derive(Debug, Clone)]
pub struct Session {
    executor: Executor,
    database: Database,
}

impl Session {
    /// Creates a session over `database` with the default parallel
    /// chunk-at-a-time executor.
    pub fn new(database: Database) -> Self {
        Self {
            executor: Executor::new(),
            database,
        }
    }

    /// Creates a session over a fresh in-memory database whose tables
    /// default to `num_segments` partitions.
    ///
    /// # Errors
    /// Propagates [`Database::new`] errors (zero segments).
    pub fn in_memory(num_segments: usize) -> Result<Self> {
        Ok(Self::new(Database::new(num_segments)?))
    }

    /// Replaces the session's executor (e.g. with [`Executor::serial`] to
    /// keep every scan on the calling thread).
    #[must_use]
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// The executor scans run under.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The database: the tables [`Session::dataset`] opens and the model
    /// catalog [`Session::train_incremental`] / [`Session::refresh`] use.
    /// Iterative drivers keep their state to themselves
    /// ([`madlib_engine::iteration`]).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Opens a dataset over a snapshot of the named catalog table, bound to
    /// this session's executor.
    ///
    /// # Errors
    /// Returns an error for an unknown table name.
    pub fn dataset(&self, name: &str) -> Result<Dataset<'static>> {
        Ok(self.database.dataset(name)?.with_executor(self.executor))
    }

    /// Trains one model over an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates estimator errors; errors when the dataset has grouping
    /// columns (use [`Session::train_grouped`]).
    pub fn train<E: Estimator>(&self, estimator: &E, dataset: &Dataset<'_>) -> Result<E::Model> {
        if dataset.is_grouped() {
            return Err(MethodError::invalid_input(
                "dataset has grouping columns; use Session::train_grouped",
            ));
        }
        estimator.fit(&dataset.reborrow().with_default_executor(self.executor))
    }

    /// Trains one model per distinct group key of a `group_by` dataset —
    /// MADlib's `grouping_cols` — returning the models keyed by the typed
    /// (possibly composite, for multi-column `group_by`)
    /// [`GroupKey`](madlib_engine::GroupKey)s of the grouped scan, sorted by
    /// key (NULL group first).
    ///
    /// Per-group fits run concurrently on the engine's work-stealing worker
    /// pool (see the module docs for the determinism contract: results are
    /// bit-identical to the serial per-group loop).
    ///
    /// # Errors
    /// Propagates estimator errors; errors when the dataset has no grouping
    /// columns (use [`Session::train`]).
    pub fn train_grouped<E>(
        &self,
        estimator: &E,
        dataset: &Dataset<'_>,
    ) -> Result<GroupedModels<E::Model>>
    where
        E: Estimator + Sync,
        E::Model: Send,
    {
        if !dataset.is_grouped() {
            return Err(MethodError::invalid_input(
                "dataset has no grouping columns; call group_by([...]) or use Session::train",
            ));
        }
        estimator.fit_grouped(&dataset.reborrow().with_default_executor(self.executor))
    }

    /// Trains a model over the whole catalog table `table`, registers it in
    /// the model catalog under `name` (`CREATE OR REPLACE` semantics), and
    /// sets up whatever incremental machinery the estimator maintains —
    /// materialized partial aggregate states for single-pass estimators,
    /// just the cataloged model for warm-starting iterative ones.
    ///
    /// After rows are appended to `table` (via
    /// [`Database::append_rows`] or [`Database::with_table_mut`]), call
    /// [`Session::refresh`] to bring the model up to date without a full
    /// retrain.
    ///
    /// # Errors
    /// Propagates estimator, table-lookup and registration errors.
    pub fn train_incremental<E: IncrementalEstimator>(
        &self,
        estimator: &E,
        table: &str,
        name: &str,
    ) -> Result<E::Model> {
        estimator.train_incremental(self, table, name)
    }

    /// Refreshes the model registered under `name` from the current contents
    /// of `table`: single-pass estimators absorb only the rows appended
    /// since the last train/refresh (their materialized states' chunk
    /// watermarks) and cheaply re-finalize — bit-identical to a full
    /// retrain; iterative estimators re-fit warm-started from the previous
    /// model in the catalog — same optimum within the convergence
    /// tolerance, in far fewer iterations.  The refreshed model replaces the
    /// cataloged one and is returned.
    ///
    /// # Errors
    /// Propagates estimator, view and catalog errors.
    pub fn refresh<E: IncrementalEstimator>(
        &self,
        estimator: &E,
        table: &str,
        name: &str,
    ) -> Result<E::Model> {
        estimator.refresh(self, table, name)
    }
}

/// A trainable method with the uniform `fit(dataset)` signature.  A fit
/// sees its rows (the dataset's filter, grouping and executor) and its own
/// arguments only; reading or writing the database is
/// [`IncrementalEstimator`]'s business, which takes the [`Session`].
pub trait Estimator {
    /// The fitted model type.
    type Model;

    /// Fits one model over the dataset's (filtered) rows.
    ///
    /// Implementations read rows through the dataset's terminals (which
    /// honour its filter and executor); an iterative one hands its state
    /// from pass to pass itself ([`madlib_engine::iteration::iterate`]).
    ///
    /// # Errors
    /// Surfaces malformed input and numerical failures as [`MethodError`].
    fn fit(&self, dataset: &Dataset<'_>) -> Result<Self::Model>;

    /// Fits one model per distinct group key of a grouped dataset.
    ///
    /// The default implementation is the *per-group gather*: it splits the
    /// dataset into per-group tables ([`Dataset::gather_groups`], which
    /// preserves every row's segment and per-segment order) and fits the
    /// groups concurrently on the engine's work-stealing worker pool —
    /// correct for any estimator, including iterative ones, because each
    /// per-group fit sees exactly the table a serial loop would; models are
    /// reassembled in key order, so the result is bitwise identical to
    /// filtering the source down to each group and fitting it alone.
    /// Single-pass aggregating estimators override this to train all groups
    /// in one segment-parallel pass (see [`fit_grouped_single_pass`]).
    ///
    /// # Errors
    /// Propagates per-group fit errors and grouping errors (an empty,
    /// unknown or duplicated grouping column); a panicking per-group fit
    /// surfaces as [`madlib_engine::EngineError::WorkerPanicked`].
    fn fit_grouped(&self, dataset: &Dataset<'_>) -> Result<GroupedModels<Self::Model>>
    where
        Self: Sized + Sync,
        Self::Model: Send,
    {
        let groups = dataset.gather_groups()?;
        let executor = *dataset.executor();
        let fitted =
            madlib_engine::scan::run_per_item(groups, executor.is_parallel(), |_, (key, table)| {
                let group_dataset = Dataset::from_table(&table).with_executor(executor);
                self.fit(&group_dataset).map(|model| (key, model))
            });
        let mut models = Vec::with_capacity(fitted.len());
        for slot in fitted {
            // Outer Err = worker panic; inner Err = the fit's own failure.
            models.push(slot.map_err(MethodError::from)??);
        }
        Ok(GroupedModels::new(models)?)
    }
}

/// Grouped training for single-pass aggregating estimators: one
/// segment-parallel [`Dataset::aggregate_per_group`] pass of `aggregate`
/// trains every group's model at once (the paper's "one regression per group
/// in a single scan").  Estimators whose model is an aggregate's output call
/// this from their [`Estimator::fit_grouped`] override.
///
/// # Errors
/// Propagates aggregate and grouping errors.
pub fn fit_grouped_single_pass<A>(
    aggregate: &A,
    dataset: &Dataset<'_>,
) -> Result<GroupedModels<A::Output>>
where
    A: Aggregate,
    A::Output: Send,
{
    Ok(GroupedModels::new(dataset.aggregate_per_group(aggregate)?)?)
}

/// An estimator whose model can be maintained under table appends without a
/// full retrain — the paper's algebraic transition/merge/final contract
/// applied to *streaming ingest*.
///
/// Two maintenance strategies, chosen per estimator:
///
/// * **Single-pass** estimators (linear regression, naive Bayes, the
///   profiler) keep a [`MaterializedAggregate`] view of their partial
///   transition states registered on the database
///   ([`Database::register_view`]).  [`IncrementalEstimator::refresh`]
///   absorbs only the rows appended past the view's chunk watermark and
///   re-finalizes — bit-identical to a full retrain, at O(appended) cost.
///   These implement the trait via [`train_incremental_single_pass`] /
///   [`refresh_single_pass`].  On a durable database the view's states
///   persist with each checkpoint when the aggregate has a state codec
///   (linear regression and naive Bayes do, the profiler does not), and
///   `train_incremental` after a restart — or the first `refresh`, which
///   falls back to it — adopts them: it absorbs only the rows the log
///   replayed past the persisted watermarks instead of rescanning the table,
///   with the same bits.  The cost of a restart is then O(rows since the
///   last checkpoint).  [`Database::recovery_report`] says whether the view
///   was adopted and, if not, why.
/// * **Iterative** estimators (logistic regression, k-means) warm-start:
///   `refresh` re-fits over the whole table but seeds the solver from the
///   previous model in the [`Database::models`] catalog, converging in far
///   fewer iterations after a small append (same optimum within the
///   solver's convergence tolerance, *not* bit-identical).
///
/// Both paths register the model under `name` with `CREATE OR REPLACE`
/// semantics, so [`Database::models`]`().get::<M>(name)` always serves the
/// latest refresh.
pub trait IncrementalEstimator: Estimator {
    /// Trains over the whole catalog table, registers the model under
    /// `name`, and installs the estimator's incremental machinery.
    ///
    /// # Errors
    /// Propagates fit, table-lookup and registration errors.
    fn train_incremental(&self, session: &Session, table: &str, name: &str) -> Result<Self::Model>;

    /// Brings the model registered under `name` up to date with `table`'s
    /// current contents (see the trait docs for the per-strategy cost and
    /// equivalence guarantees).  Falls back to
    /// [`IncrementalEstimator::train_incremental`] when `name` was never
    /// trained in this session.
    ///
    /// # Errors
    /// Propagates fit, view and catalog errors.
    fn refresh(&self, session: &Session, table: &str, name: &str) -> Result<Self::Model>;
}

/// The database view name backing the incremental model `name` — namespaced
/// so it cannot collide with user-registered views.
pub fn incremental_view_name(model_name: &str) -> String {
    format!("__incremental::{model_name}")
}

/// [`IncrementalEstimator::train_incremental`] for single-pass aggregating
/// estimators: registers a [`MaterializedAggregate`] view of `aggregate`'s
/// transition states over `table`, absorbs the table's current rows, and
/// finalizes + catalogs the model.  Replaces any previous view/model of the
/// same `name`.  On a recovered database the registration offers the new
/// view the states the last checkpoint persisted under its name, and the
/// absorb then catches up only the rows past them.
///
/// # Errors
/// Propagates table-lookup, absorb and finalize errors.
pub fn train_incremental_single_pass<A>(
    aggregate: A,
    session: &Session,
    table: &str,
    name: &str,
) -> Result<A::Output>
where
    A: Aggregate + Send + 'static,
    A::State: Clone + 'static,
    A::Output: Clone + Send + Sync + 'static,
{
    let view = MaterializedAggregate::new(aggregate, session.executor());
    session
        .database()
        .register_view(&incremental_view_name(name), table, Box::new(view))?;
    finalize_single_pass::<A>(session, name)
}

/// [`IncrementalEstimator::refresh`] for single-pass aggregating estimators:
/// absorbs rows appended past the view's watermark, re-finalizes, and
/// replaces the cataloged model.  `aggregate` is used only when no view
/// exists (e.g. a fresh session refreshing a name it never trained): the
/// call falls back to [`train_incremental_single_pass`].  A view of another
/// aggregate type under `name` is a typed error, and the cataloged model
/// stays as it was.
///
/// # Errors
/// Propagates absorb, finalize and catalog errors.
pub fn refresh_single_pass<A>(
    aggregate: A,
    session: &Session,
    table: &str,
    name: &str,
) -> Result<A::Output>
where
    A: Aggregate + Send + 'static,
    A::State: Clone + 'static,
    A::Output: Clone + Send + Sync + 'static,
{
    if !session.database().has_view(&incremental_view_name(name)) {
        return train_incremental_single_pass(aggregate, session, table, name);
    }
    finalize_single_pass::<A>(session, name)
}

/// Catches the view backing `name` up to its source table and re-finalizes,
/// registering the resulting model under `name`.
fn finalize_single_pass<A>(session: &Session, name: &str) -> Result<A::Output>
where
    A: Aggregate + Send + 'static,
    A::State: Clone + 'static,
    A::Output: Clone + Send + Sync + 'static,
{
    let model = session
        .database()
        .refresh_view(&incremental_view_name(name), |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<A>>()
                .ok_or_else(|| {
                    madlib_engine::EngineError::invalid(format!(
                        "materialized view backing model {name:?} holds a different aggregate type"
                    ))
                })?
                .finalize()
        })?;
    session.database().models().register(name, model.clone());
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regress::LinearRegression;
    use madlib_engine::{row, Column, ColumnType, Schema, Table, Value};

    fn grouped_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("g", ColumnType::Text),
            Column::new("y", ColumnType::Double),
            Column::new("x", ColumnType::DoubleArray),
        ]);
        let mut t = Table::new(schema, 3).unwrap();
        for i in 0..60 {
            let (g, slope) = if i % 2 == 0 { ("a", 2.0) } else { ("b", -1.0) };
            let x = i as f64 * 0.25;
            t.insert(row![g, slope * x + 1.0, vec![1.0, x]]).unwrap();
        }
        t
    }

    #[test]
    fn session_routes_grouped_and_ungrouped_training() {
        let t = grouped_table();
        let session = Session::in_memory(3).unwrap();
        let estimator = LinearRegression::new("y", "x");

        let whole = session.train(&estimator, &Dataset::from_table(&t)).unwrap();
        assert_eq!(whole.num_rows, 60);

        let grouped = session
            .train_grouped(&estimator, &Dataset::from_table(&t).group_by(["g"]))
            .unwrap();
        assert_eq!(grouped.len(), 2);
        let a = grouped.get(&Value::Text("a".into())).unwrap();
        assert!((a.coef[1] - 2.0).abs() < 1e-8);
        let b = grouped.get(&Value::Text("b".into())).unwrap();
        assert!((b.coef[1] + 1.0).abs() < 1e-8);
        assert!(grouped.get(&Value::Text("c".into())).is_none());

        // Mis-routed calls are rejected with guidance.
        assert!(session
            .train(&estimator, &Dataset::from_table(&t).group_by(["g"]))
            .is_err());
        assert!(session
            .train_grouped(&estimator, &Dataset::from_table(&t))
            .is_err());
    }

    /// Reports whether the training actually ran on parallel workers.
    struct Probe;
    impl Estimator for Probe {
        type Model = bool;
        fn fit(&self, dataset: &Dataset<'_>) -> Result<bool> {
            Ok(dataset.executor().is_parallel())
        }
    }

    #[test]
    fn explicitly_bound_dataset_executor_wins_over_the_session_default() {
        let t = grouped_table();
        let session = Session::in_memory(1)
            .unwrap()
            .with_executor(Executor::serial());
        // Unbound dataset: the session's executor applies.
        let parallel = session.train(&Probe, &Dataset::from_table(&t)).unwrap();
        assert!(!parallel);
        // Explicitly bound dataset: its executor sticks.
        let parallel = session
            .train(
                &Probe,
                &Dataset::from_table(&t).with_executor(Executor::new()),
            )
            .unwrap();
        assert!(parallel);
    }

    #[test]
    fn session_dataset_binds_the_session_executor() {
        let serial = Session::in_memory(2)
            .unwrap()
            .with_executor(Executor::serial());
        serial
            .database()
            .create_table(
                "data",
                Schema::new(vec![Column::new("v", ColumnType::Double)]),
            )
            .unwrap();
        let ds = serial.dataset("data").unwrap();
        assert!(!ds.executor().is_parallel());
        // Bound, not defaulted: a parallel session trains it serially.
        let parallel = Session::new(serial.database().clone());
        assert!(!parallel.train(&Probe, &ds).unwrap());
    }
}
