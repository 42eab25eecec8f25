//! # madlib-core
//!
//! The MADlib-rs method library: the statistical methods listed in Table 1 of
//! the paper, implemented in the macro/micro-programming style of Section 3 —
//! every data-bound computation is a user-defined aggregate or a driver-
//! function iteration over the [`madlib_engine`] substrate, and the in-core
//! arithmetic goes through [`madlib_linalg`].
//!
//! | Paper Table 1 entry            | Module |
//! |--------------------------------|--------|
//! | Linear Regression              | [`regress::linear`] |
//! | Logistic Regression            | [`regress::logistic`] |
//! | Naive Bayes Classification     | [`classify::naive_bayes`] |
//! | Decision Trees (C4.5)          | [`classify::decision_tree`] |
//! | Support Vector Machines        | [`classify::svm`] |
//! | k-Means Clustering             | [`cluster::kmeans`] |
//! | SVD Matrix Factorization       | [`factor::lowrank`] |
//! | Latent Dirichlet Allocation    | [`topic::lda`] |
//! | Association Rules              | [`assoc::apriori`] |
//! | Conjugate Gradient             | [`optim::conjugate_gradient`] |
//! | Quantiles / Sketches / Profile | the `madlib-sketch` crate |
//! | Sparse Vectors / Array Ops     | the `madlib-linalg` crate |
//!
//! **Every** method trains through the uniform convention in [`train`]:
//! `Session::train(&estimator, &dataset)` (one model) or
//! `Session::train_grouped` (one model per `group_by` key — the paper's
//! `grouping_cols`).  The [`train::Estimator`] impls in this crate are
//! [`regress::LinearRegression`], [`regress::LogisticRegression`],
//! [`classify::NaiveBayes`], [`classify::DecisionTree`],
//! [`classify::LinearSvm`], [`cluster::KMeans`],
//! [`factor::LowRankFactorization`], [`topic::Lda`] and [`assoc::Apriori`];
//! the convex-framework objectives train via `madlib_convex::IgdEstimator`,
//! the CRF via `madlib_text::CrfEstimator`, and the profiler via
//! `madlib_sketch::Profiler`.  In addition, [`datasets`] provides the
//! synthetic workload generators used by the examples, tests and the
//! benchmark harness, and [`validate`] provides evaluation metrics and
//! cross-validation.
//!
//! Serving mirrors training: every fitted model implements the typed
//! [`score::Predictor`] contract, [`score::FeatureScorer`] adapts it to the
//! engine's `Scorer` scan pass, and `Session::register_model` /
//! `Session::score` store and serve models by name through the database
//! model catalog (grouped registries route rows to their group's model).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod classify;
pub mod cluster;
pub mod datasets;
pub mod error;
pub mod factor;
pub mod optim;
pub mod regress;
pub mod score;
pub mod topic;
pub mod train;
pub mod validate;

pub use error::{MethodError, Result};
pub use score::{FeatureScorer, Predictor};
pub use train::{Estimator, GroupedModels, IncrementalEstimator, Session};

/// Support for the method modules' tests.
#[cfg(test)]
pub(crate) mod test_support {
    use madlib_engine::aggregate::{transition_chunk_by_rows, Aggregate};
    use madlib_engine::expr::Predicate;
    use madlib_engine::{
        reference, scan, Column, ColumnType, Dataset, Executor, GroupKey, Row, RowChunk, Schema,
        Table, Value,
    };
    use std::fmt::Debug;

    /// The aggregate-layer half of the chunk ≡ rows contract, for aggregates
    /// private to a method (which `madlib_engine::reference` cannot reach):
    /// folds `table`'s chunks — compacted by `filter` — into one state
    /// through `transition_chunk` and into another through
    /// `transition_chunk_by_rows`, each side stopping at its first error, and
    /// asserts the two outcomes and final states (as `bits` reads them) are
    /// equal.
    pub(crate) fn assert_chunk_path_is_row_fallback<A, B>(
        aggregate: &A,
        table: &Table,
        filter: Option<&Predicate>,
        bits: impl Fn(&A::State) -> B,
    ) where
        A: Aggregate,
        B: PartialEq + Debug,
    {
        let schema = table.schema();
        let fold = |transition: &dyn Fn(&mut A::State, &RowChunk) -> madlib_engine::Result<()>| {
            let mut state = aggregate.initial_state();
            let outcome = (0..table.num_segments()).try_for_each(|s| {
                scan::scan_segment_chunks(table.segment(s), schema, filter, |batch| {
                    transition(&mut state, batch.chunk())
                })
                .map(drop)
            });
            (outcome, bits(&state))
        };
        let chunked = fold(&|state, chunk| aggregate.transition_chunk(state, chunk, schema));
        let by_rows =
            fold(&|state, chunk| transition_chunk_by_rows(aggregate, state, chunk, schema));
        assert_eq!(chunked, by_rows);
    }

    /// 400 rows over two segments in 16-row chunks: `y` (0 / 1), `x` (width
    /// 2) and `items` (`text[]`) between distractor columns — a text column
    /// with NULLs (`note`), a bigint (`n`) and an array (`tags`).
    pub(crate) fn input_columns_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("note", ColumnType::Text),
            Column::new("y", ColumnType::Double),
            Column::new("n", ColumnType::Int),
            Column::new("x", ColumnType::DoubleArray),
            Column::new("items", ColumnType::TextArray),
            Column::new("tags", ColumnType::IntArray),
        ]);
        let mut table = Table::new(schema, 2)
            .unwrap()
            .with_chunk_capacity(16)
            .unwrap();
        for i in 0..400_i64 {
            let t = i as f64;
            let note = [Value::Null, Value::Text("a".into())][(i % 2) as usize].clone();
            let items = ["a", "b", "c", "d"].iter().take(1 + (i % 4) as usize);
            let row = Row::new(vec![
                note,
                Value::Double(((t * 0.7).sin() > 0.0) as i64 as f64),
                Value::Int(i % 7),
                Value::DoubleArray(vec![(t * 0.3).cos(), (t * 0.13).sin() * 2.0]),
                Value::TextArray(items.map(|item| (*item).to_owned()).collect()),
                Value::IntArray(vec![i]),
            ]);
            table.insert_into_segment((i % 2) as usize, row).unwrap();
        }
        table
    }

    /// The declaration half of the contract for aggregates private to a
    /// method: over [`input_columns_table`] — with and without a filter,
    /// ungrouped and grouped by a low- (`note`) and a higher-cardinality
    /// (`n`, `note`) key, under both executors — the outputs (`Debug`, every
    /// float's exact value) from a copy holding only the declared columns
    /// ([`reference::aggregate_on_input_columns`]) are the full table's.
    pub(crate) fn assert_input_columns_suffice<A>(aggregate: &A)
    where
        A: Aggregate,
        A::Output: Debug + Send,
    {
        let table = input_columns_table();
        for executor in [Executor::new(), Executor::serial()] {
            for filtered in [false, true] {
                for keys in [&[][..], &["note"], &["n", "note"]] {
                    let mut dataset = Dataset::from_table(&table).with_executor(executor);
                    if filtered {
                        dataset = dataset.filter(Predicate::column_lt("n", 4.0));
                    }
                    let full = if keys.is_empty() {
                        let empty = GroupKey::composite(Vec::new());
                        dataset.aggregate(aggregate).map(|out| vec![(empty, out)])
                    } else {
                        dataset = dataset.group_by(keys.iter().copied());
                        dataset.aggregate_per_group(aggregate)
                    };
                    let narrowed = reference::aggregate_on_input_columns(&dataset, aggregate);
                    assert_eq!(
                        format!("{narrowed:?}"),
                        format!("{full:?}"),
                        "filtered {filtered}, grouped by {keys:?}, {executor:?}"
                    );
                }
            }
        }
    }
}
