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
    use madlib_engine::{scan, RowChunk, Table};
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
}
