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
//!   trains one model per composite `(a, b)` tuple.
//!
//! # Two shapes, one driver each
//!
//! The paper builds every method one of two ways, and each way is written
//! once here:
//!
//! * [`SinglePass`] — one aggregate (transition / merge / final, §4.1:
//!   linear regression, naive Bayes, the profile).  The blanket impls give
//!   it [`Estimator`] (`fit` is one [`Dataset::aggregate`], `fit_grouped`
//!   one segment-parallel [`Dataset::aggregate_per_group`] pass for every
//!   group) and the view-backed [`IncrementalEstimator`] (refresh absorbs
//!   the appended rows, bit-identical to a retrain).
//! * [`Iterative`] — a driver loop around an aggregate parameterised by
//!   the previous state (§3.1.2's driver functions: §4.2 IRLS, §4.3
//!   k-means, §5.1 IGD).  [`fit_iterative`] is its one driver and
//!   [`fit_into_catalog`] its one warm-start `train_incremental` /
//!   `refresh` (the rule is stated on [`IncrementalEstimator`]); each
//!   estimator gets the impls that forward to them from one
//!   [`iterative_estimator!`](crate::iterative_estimator) line, because
//!   Rust admits one blanket impl of a trait.  Grouped fits use the default per-group
//!   gather, which splits the input into per-group tables **preserving
//!   each row's segment** so every per-group fit is bitwise identical to
//!   filtering the source down to that group and fitting it alone
//!   (property-tested in `tests/grouped_training.rs`).
//!
//! Methods of neither shape (SVM, decision tree, low-rank factorization,
//! LDA, Apriori, the CRF) implement [`Estimator`] directly.
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
use madlib_engine::{Aggregate, Database, EngineError, Executor, Schema};

/// One model per group, sorted by the typed `GroupKey`s of the grouped scan
/// (NULL group first): the engine's one grouped registry, which the model
/// catalog stores and `Dataset::score_per_group` serves as it is.
pub use madlib_engine::group::GroupedModels;

/// Execution context for training: the executor that runs scans and the
/// database holding the tables [`Session::dataset`] opens and the models
/// incremental training catalogs.
///
/// A session is cheap to clone ([`Database`] is a shared handle and
/// [`Executor`] is `Copy`).
///
/// Executor precedence: an executor bound with [`Dataset::with_executor`]
/// wins over the session's, which wins over the parallel default
/// ([`Executor::new`]).  [`Session::train`], [`Session::train_grouped`] and
/// [`Session::score`] apply the session's executor with
/// [`Dataset::with_default_executor`], so a comparison can pin either side.
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
    /// Iterative drivers keep their state to themselves ([`Iterative`]).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Opens a dataset over a snapshot of the named catalog table, bound to
    /// this session's executor.
    ///
    /// # Errors
    /// Returns an error for an unknown table name.
    pub fn dataset(&self, name: &str) -> Result<Dataset> {
        Ok(self.database.dataset(name)?.with_executor(self.executor))
    }

    /// Trains one model over an ungrouped dataset.
    ///
    /// # Errors
    /// Propagates estimator errors; errors when the dataset has grouping
    /// columns (use [`Session::train_grouped`]).
    pub fn train<E: Estimator>(&self, estimator: &E, dataset: &Dataset) -> Result<E::Model> {
        if dataset.is_grouped() {
            return Err(MethodError::invalid_input(
                "dataset has grouping columns; use Session::train_grouped",
            ));
        }
        estimator.fit(&dataset.clone().with_default_executor(self.executor))
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
        dataset: &Dataset,
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
        estimator.fit_grouped(&dataset.clone().with_default_executor(self.executor))
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
///
/// A [`SinglePass`] estimator gets this trait from the blanket impl; an
/// [`Iterative`] one from [`iterative_estimator!`](crate::iterative_estimator).
pub trait Estimator {
    /// The fitted model type.
    type Model;

    /// Fits one model over the dataset's (filtered) rows.
    ///
    /// Implementations read rows through the dataset's terminals (which
    /// honour its filter and executor).
    ///
    /// # Errors
    /// Surfaces malformed input and numerical failures as [`MethodError`].
    fn fit(&self, dataset: &Dataset) -> Result<Self::Model>;

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
    /// [`SinglePass`] estimators override it to train all groups in one
    /// segment-parallel pass.
    ///
    /// # Errors
    /// Propagates per-group fit errors and grouping errors (an empty,
    /// unknown or duplicated grouping column); a panicking per-group fit
    /// surfaces as [`madlib_engine::EngineError::WorkerPanicked`].
    fn fit_grouped(&self, dataset: &Dataset) -> Result<GroupedModels<Self::Model>>
    where
        Self: Sized + Sync,
        Self::Model: Send,
    {
        let groups = dataset.gather_groups()?;
        let executor = dataset.executor();
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

/// The first shape (paper §4.1): the model is one aggregate's output —
/// transition, merge and final, in one pass over the rows.  Linear
/// regression, naive Bayes and the profiler are this shape, and implement
/// only this trait: [`Estimator`] and the view-backed
/// [`IncrementalEstimator`] come from the blanket impls.
pub trait SinglePass {
    /// The aggregate; its output is the model.
    type Aggregate: Aggregate<State: Clone + 'static, Output: Clone + Send + Sync + 'static>
        + Send
        + 'static;

    /// The aggregate over rows of `schema` (the profile's state is a
    /// function of the schema; the others ignore it).
    fn aggregate(&self, schema: &Schema) -> Self::Aggregate;
}

impl<T: SinglePass> Estimator for T {
    type Model = <T::Aggregate as Aggregate>::Output;

    /// One aggregate pass over the dataset's (filtered) rows.
    fn fit(&self, dataset: &Dataset) -> Result<Self::Model> {
        Ok(dataset.aggregate(&self.aggregate(dataset.schema()))?)
    }

    /// One segment-parallel [`Dataset::aggregate_per_group`] pass trains
    /// every group's model at once (the paper's "one regression per group in
    /// a single scan").
    fn fit_grouped(&self, dataset: &Dataset) -> Result<GroupedModels<Self::Model>> {
        let models = dataset.aggregate_per_group(&self.aggregate(dataset.schema()))?;
        Ok(GroupedModels::new(models)?)
    }
}

/// An estimator whose model can be maintained under table appends without a
/// full retrain — the paper's algebraic transition/merge/final contract
/// applied to *streaming ingest*.
///
/// One maintenance strategy per shape:
///
/// * **[`SinglePass`]** (linear regression, naive Bayes, the profiler;
///   the blanket impl): the estimator keeps a [`MaterializedAggregate`]
///   view of its partial transition states registered on the database
///   ([`Database::register_view`]).  `refresh` absorbs only the rows
///   appended past the view's chunk watermark and re-finalizes —
///   bit-identical to a full retrain, at O(appended) cost; without a view
///   under `name` it is `train_incremental` when the name holds no model or
///   one of the estimator's type, and a view of another aggregate type or a
///   catalog entry of another kind under `name` is a typed error that
///   leaves the catalog as it was.  On a durable database the view's states
///   persist with each checkpoint when the aggregate has a state codec
///   (linear regression and naive Bayes do, the profiler does not), and
///   `train_incremental` after a restart — or the first `refresh`, which
///   falls back to it — adopts them: it absorbs only the rows the log
///   replayed past the persisted watermarks instead of rescanning the
///   table, with the same bits.  The cost of a restart is then O(rows
///   since the last checkpoint).
///   [`Database::recovery_report`] says whether the view was adopted and,
///   if not, why.
/// * **[`Iterative`]** (logistic regression, k-means, IGD; through
///   [`fit_into_catalog`]): `train_incremental` is a cold fit over the
///   whole table, and `refresh` re-fits over the whole table warm-started
///   from the model cataloged under `name`, converging in far fewer
///   iterations after a small append (same optimum within the solver's
///   convergence tolerance, *not* bit-identical to a cold fit).  The
///   **warm-start rule**: a refresh is exactly the fit seeded with the
///   cataloged model's state ([`Iterative::initial`]) when that model is
///   of the estimator's type and its shape fits the estimator and the data
///   (coefficient width, `k` and point dimension, model length); a model
///   of the right type whose shape does not fit, and a name with no model
///   ([`madlib_engine::EngineError::ModelNotFound`]), cold-start — the
///   refresh is then [`Estimator::fit`], still a correct fit.  Any other
///   lookup error (a model of another type, a grouped registry) is
///   returned, and the catalog stays as it was.
///
/// Both register the model under `name` with `CREATE OR REPLACE`
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
    /// current contents (see the trait docs for each shape's cost,
    /// equivalence guarantee and warm-start rule).
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

impl<T: SinglePass> IncrementalEstimator for T {
    /// Registers a [`MaterializedAggregate`] view of the aggregate's
    /// transition states over `table` (replacing any view of the same
    /// `name`), absorbs the table's rows, and finalizes and catalogs the
    /// model.  On a recovered database the registration offers the new view
    /// the states the last checkpoint persisted under its name, and the
    /// absorb then catches up only the rows past them.
    fn train_incremental(&self, session: &Session, table: &str, name: &str) -> Result<Self::Model> {
        let aggregate = self.aggregate(session.database().table(table)?.schema());
        let view = MaterializedAggregate::new(aggregate, session.executor());
        session
            .database()
            .register_view(&incremental_view_name(name), table, Box::new(view))?;
        finalize_view::<T>(session, name)
    }

    /// Absorbs the rows appended past the view's watermark, re-finalizes and
    /// replaces the cataloged model.  Without a view under `name` it trains
    /// from scratch when the name holds no model or one of this type, and
    /// otherwise returns the catalog's lookup error with the catalog as it
    /// was — the rule of the iterative warm start.
    fn refresh(&self, session: &Session, table: &str, name: &str) -> Result<Self::Model> {
        let database = session.database();
        if database.has_view(&incremental_view_name(name)) {
            return finalize_view::<T>(session, name);
        }
        match database.models().get::<Self::Model>(name) {
            Ok(_) | Err(EngineError::ModelNotFound { .. }) => {
                self.train_incremental(session, table, name)
            }
            Err(error) => Err(error.into()),
        }
    }
}

/// Catches the view backing `name` up to its source table and re-finalizes,
/// registering the resulting model under `name`.
fn finalize_view<T: SinglePass>(
    session: &Session,
    name: &str,
) -> Result<<T::Aggregate as Aggregate>::Output> {
    let model = session
        .database()
        .refresh_view(&incremental_view_name(name), |state| {
            state
                .as_any_mut()
                .downcast_mut::<MaterializedAggregate<T::Aggregate>>()
                .ok_or_else(|| {
                    EngineError::invalid(format!(
                        "materialized view backing model {name:?} holds a different aggregate type"
                    ))
                })?
                .finalize()
        })?;
    session.database().models().register(name, model.clone());
    Ok(model)
}

/// The second shape (paper §3.1.2's driver functions): a driver loop around
/// an aggregate parameterised by the previous state — §4.2's IRLS, §4.3's
/// k-means, §5.1's IGD.  The one driver ([`fit_iterative`], which
/// [`fit_into_catalog`] runs for [`IncrementalEstimator`]) runs the opening
/// passes ([`Iterative::initial`]), then one [`Iterative::step`] pass per
/// iteration, each handed the state the previous one produced, until
/// [`Iterative::converged`] or [`Iterative::max_iterations`], then the final
/// model pass ([`Iterative::model`]).  The state lives in the driver: the
/// paper stages it in a temp table (Figure 3) because it must survive
/// between a Python driver's SQL statements, and here it is the pass's
/// argument.
pub trait Iterative {
    /// The fitted model.
    type Model;
    /// The state one iteration hands the next.
    type State;
    /// What the opening passes learned that later calls reuse (the point
    /// count and dimension, the objective at the initial model).
    type Context;
    /// What one step pass returns, which [`Iterative::next`] turns into the
    /// next state.
    type StepOutput;

    /// The iteration cap.
    fn max_iterations(&self) -> usize;

    /// The opening passes and the first state, which may scan (k-means++
    /// seeding, IGD's initial objective).  `warm` is the previous model of a
    /// refresh: the fit starts from its state (coefficients, centroids, model
    /// vector) when that fits the estimator and the data, and otherwise as
    /// it would without it.
    ///
    /// # Errors
    /// Malformed or empty input; an initial state set on the estimator
    /// whose shape does not fit the data.
    fn initial(
        &self,
        dataset: &Dataset,
        warm: Option<&Self::Model>,
    ) -> Result<(Self::Context, Self::State)>;

    /// The aggregate of iteration `iteration` (counted from 1) from `state`.
    fn step<'s>(
        &'s self,
        state: &'s Self::State,
        iteration: usize,
    ) -> impl Aggregate<Output = Self::StepOutput> + 's;

    /// The state after `state`, from its step pass's output.
    ///
    /// # Errors
    /// Numerical failures (a singular system).
    fn next(&self, state: &Self::State, output: Self::StepOutput) -> Result<Self::State>;

    /// Whether the loop stops at `next`, the state after `previous`.
    fn converged(
        &self,
        context: &Self::Context,
        previous: &Self::State,
        next: &Self::State,
    ) -> bool;

    /// The model from where the loop stopped (which may make a final pass).
    ///
    /// # Errors
    /// Numerical failures and non-finite results.
    fn model(
        &self,
        dataset: &Dataset,
        context: Self::Context,
        outcome: Iterated<Self::State>,
    ) -> Result<Self::Model>;
}

/// [`Estimator::fit`] for an [`Iterative`] estimator, warm-started from
/// `warm` when it fits ([`Iterative::initial`]): the one driver loop —
/// opening passes, one step pass per iteration, the model.
///
/// # Errors
/// The first error of an opening, step or final pass.
pub fn fit_iterative<I: Iterative>(
    estimator: &I,
    dataset: &Dataset,
    warm: Option<&I::Model>,
) -> Result<I::Model> {
    let (context, initial) = estimator.initial(dataset, warm)?;
    let outcome = iterate(
        estimator.max_iterations(),
        initial,
        |state, iteration| {
            let output = dataset.aggregate(&estimator.step(state, iteration))?;
            estimator.next(state, output)
        },
        |previous, next| estimator.converged(&context, previous, next),
    )?;
    estimator.model(dataset, context, outcome)
}

/// Implements [`Estimator`] and [`IncrementalEstimator`] for an
/// [`Iterative`] estimator by forwarding to the one driver: `fit` is
/// [`fit_iterative`], `train_incremental` and `refresh` are
/// [`fit_into_catalog`] cold and warm.  (A macro, because Rust admits one
/// blanket impl of a trait and [`SinglePass`] has it.)  A generic
/// estimator lists its parameters in brackets first:
/// `iterative_estimator!([O: ConvexObjective] IgdEstimator<O>)`.
#[macro_export]
macro_rules! iterative_estimator {
    ([$($generics:tt)*] $estimator:ty) => {
        impl<$($generics)*> $crate::train::Estimator for $estimator {
            type Model = <Self as $crate::train::Iterative>::Model;

            fn fit(&self, dataset: &::madlib_engine::Dataset) -> $crate::Result<Self::Model> {
                $crate::train::fit_iterative(self, dataset, None)
            }
        }

        impl<$($generics)*> $crate::train::IncrementalEstimator for $estimator {
            fn train_incremental(
                &self,
                session: &$crate::Session,
                table: &str,
                name: &str,
            ) -> $crate::Result<Self::Model> {
                $crate::train::fit_into_catalog(self, session, table, name, false)
            }

            fn refresh(
                &self,
                session: &$crate::Session,
                table: &str,
                name: &str,
            ) -> $crate::Result<Self::Model> {
                $crate::train::fit_into_catalog(self, session, table, name, true)
            }
        }
    };
    ($estimator:ty) => {
        $crate::iterative_estimator!([] $estimator);
    };
}

/// [`IncrementalEstimator`] for an [`Iterative`] estimator: fits over the
/// whole catalog table `table` — warm-started from the model cataloged
/// under `name` when `warm_start` is set, under the rule the
/// [`IncrementalEstimator`] docs state — and registers the fit under `name`.
///
/// # Errors
/// Any lookup error but [`EngineError::ModelNotFound`] (the catalog is then
/// left as it was), table-lookup and fit errors.
pub fn fit_into_catalog<I>(
    estimator: &I,
    session: &Session,
    table: &str,
    name: &str,
    warm_start: bool,
) -> Result<I::Model>
where
    I: Iterative<Model: Clone + Send + Sync + 'static>,
{
    let models = session.database().models();
    let previous = match warm_start.then(|| models.get::<I::Model>(name)) {
        Some(Ok(previous)) => Some(previous),
        None | Some(Err(EngineError::ModelNotFound { .. })) => None,
        Some(Err(error)) => return Err(error.into()),
    };
    let model = fit_iterative(estimator, &session.dataset(table)?, previous.as_deref())?;
    models.register(name, model.clone());
    Ok(model)
}

/// Where the driver loop of [`fit_iterative`] stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct Iterated<S> {
    /// The last state: the initial one when no step ran.
    pub state: S,
    /// Steps run (at most `max_iterations`).
    pub iterations: usize,
    /// Whether the convergence test stopped the loop, as opposed to the
    /// iteration cap.
    pub converged: bool,
}

/// Runs a driver loop from `initial`: `step(previous, iteration)` runs one
/// pass (iterations count from 1), and `converged(previous, next)` decides
/// after each step whether to stop.  At `max_iterations` steps the loop
/// stops unconverged; `max_iterations == 0` returns `initial` untouched.
///
/// # Errors
/// The first error a step returns, which ends the loop.
fn iterate<S, E>(
    max_iterations: usize,
    initial: S,
    mut step: impl FnMut(&S, usize) -> std::result::Result<S, E>,
    mut converged: impl FnMut(&S, &S) -> bool,
) -> std::result::Result<Iterated<S>, E> {
    let mut state = initial;
    for iteration in 1..=max_iterations {
        let next = step(&state, iteration)?;
        let done = converged(&state, &next);
        state = next;
        if done {
            return Ok(Iterated {
                state,
                iterations: iteration,
                converged: true,
            });
        }
    }
    Ok(Iterated {
        state,
        iterations: max_iterations,
        converged: false,
    })
}

/// Standard convergence test: relative L2 movement of the state vector.
///
/// Returns true when `‖next − previous‖ ≤ tolerance · (1 + ‖previous‖)`.
pub fn l2_relative_convergence(previous: &[f64], next: &[f64], tolerance: f64) -> bool {
    if previous.len() != next.len() {
        return false;
    }
    let mut diff = 0.0;
    let mut base = 0.0;
    for (p, n) in previous.iter().zip(next) {
        diff += (p - n) * (p - n);
        base += p * p;
    }
    diff.sqrt() <= tolerance * (1.0 + base.sqrt())
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
        fn fit(&self, dataset: &Dataset) -> Result<bool> {
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

    #[test]
    fn converges_on_fixed_point() {
        // x_{k+1} = (x_k + 2/x_k)/2 converges to sqrt(2).
        let outcome = iterate(
            100,
            vec![1.0],
            |state: &Vec<f64>, _| Ok::<_, EngineError>(vec![(state[0] + 2.0 / state[0]) / 2.0]),
            |previous, next| l2_relative_convergence(previous, next, 1e-6),
        )
        .unwrap();
        assert!(outcome.converged);
        assert!((outcome.state[0] - 2.0_f64.sqrt()).abs() < 1e-6);
        assert!(outcome.iterations < 20);
    }

    #[test]
    fn stops_at_iteration_cap_without_error_by_default() {
        let (mut steps, mut tests) = (Vec::new(), Vec::new());
        let outcome = iterate(
            5,
            0.0,
            |state: &f64, iteration| {
                steps.push(iteration);
                Ok::<_, EngineError>(state + 1.0)
            },
            |previous, next| {
                tests.push((*previous, *next));
                false // never converges
            },
        )
        .unwrap();
        assert!(!outcome.converged);
        assert_eq!(outcome.iterations, 5);
        assert_eq!(outcome.state, 5.0);
        assert_eq!(steps, [1, 2, 3, 4, 5], "steps are numbered from 1");
        let pairs = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)];
        assert_eq!(tests, pairs, "the test sees (previous, next)");
    }

    #[test]
    fn step_errors_propagate() {
        let result = iterate(
            100,
            0.0,
            |_: &f64, iteration| {
                if iteration >= 2 {
                    Err(EngineError::aggregate("numerical failure"))
                } else {
                    Ok(1.0)
                }
            },
            |_, _| false,
        );
        assert!(result.is_err());
    }

    #[test]
    fn l2_relative_convergence_behaviour() {
        assert!(l2_relative_convergence(&[1.0, 1.0], &[1.0, 1.0], 1e-9));
        assert!(!l2_relative_convergence(&[1.0, 1.0], &[2.0, 1.0], 1e-3));
        assert!(!l2_relative_convergence(&[1.0], &[1.0, 2.0], 1.0));
        // Scale invariance: large states tolerate proportionally large moves.
        assert!(l2_relative_convergence(&[1e9], &[1e9 + 1.0], 1e-6));
    }

    #[test]
    fn zero_max_iterations_returns_initial_state() {
        let outcome = iterate(
            0,
            7.0,
            |_: &f64, _| -> std::result::Result<f64, EngineError> {
                unreachable!("no iterations expected")
            },
            |_, _| true,
        )
        .unwrap();
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.state, 7.0);
        assert!(!outcome.converged);
    }
}
