//! Table 2: one SGD (IGD) epoch sweep for representative objectives of the
//! convex-optimization framework.

use criterion::{criterion_group, criterion_main, Criterion};
use madlib_convex::objectives::{LeastSquaresObjective, LogisticObjective, SvmHingeObjective};
use madlib_convex::{ConvexObjective, IgdConfig, IgdEstimator, StepSchedule};
use madlib_core::datasets::{linear_regression_data, logistic_regression_data};
use madlib_core::Estimator;
use madlib_engine::{Dataset, Table};

fn train<O: ConvexObjective>(estimator: &IgdEstimator<O>, table: &Table) {
    estimator.fit(&Dataset::from_table(table)).unwrap();
}

/// `objective` run for `epochs` constant-step epochs from a zero model.
fn epochs<O: ConvexObjective>(objective: O, epochs: usize) -> IgdEstimator<O> {
    IgdEstimator::new(objective).with_config(IgdConfig {
        max_epochs: epochs,
        tolerance: 1e-9,
        schedule: StepSchedule::Constant(0.05),
    })
}

fn bench_sgd(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_sgd");
    group.sample_size(10);
    let reg = linear_regression_data(5_000, 8, 0.1, 4, 1).unwrap();
    let cls = logistic_regression_data(5_000, 8, 4, 2).unwrap();
    group.bench_function("least_squares_10_epochs", |b| {
        let estimator = epochs(LeastSquaresObjective::new("y", "x", 8), 10);
        b.iter(|| train(&estimator, &reg.table))
    });
    group.bench_function("logistic_10_epochs", |b| {
        let estimator = epochs(LogisticObjective::new("y", "x", 8), 10);
        b.iter(|| train(&estimator, &cls.table))
    });
    group.bench_function("svm_10_epochs", |b| {
        let estimator = epochs(SvmHingeObjective::new("y", "x", 8, 1e-3), 10);
        b.iter(|| train(&estimator, &cls.table))
    });
    group.finish();
}

criterion_group!(benches, bench_sgd);
criterion_main!(benches);
