//! Table 2: one SGD (IGD) epoch sweep for representative objectives of the
//! convex-optimization framework.

use criterion::{criterion_group, criterion_main, Criterion};
use madlib_convex::objectives::{LeastSquaresObjective, LogisticObjective, SvmHingeObjective};
use madlib_convex::{ConvexObjective, IgdConfig, IgdRunner, StepSchedule};
use madlib_core::datasets::{linear_regression_data, logistic_regression_data};
use madlib_engine::{Executor, Table};

fn train<O: ConvexObjective>(objective: &O, table: &Table, epochs: usize) {
    let runner = IgdRunner::new(IgdConfig {
        max_epochs: epochs,
        tolerance: 1e-9,
        schedule: StepSchedule::Constant(0.05),
    });
    runner
        .run(
            &Executor::new(),
            table,
            objective,
            vec![0.0; objective.dimension()],
        )
        .unwrap();
}

fn bench_sgd(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_sgd");
    group.sample_size(10);
    let reg = linear_regression_data(5_000, 8, 0.1, 4, 1).unwrap();
    let cls = logistic_regression_data(5_000, 8, 4, 2).unwrap();
    group.bench_function("least_squares_10_epochs", |b| {
        let objective = LeastSquaresObjective::new("y", "x", 8);
        b.iter(|| train(&objective, &reg.table, 10))
    });
    group.bench_function("logistic_10_epochs", |b| {
        let objective = LogisticObjective::new("y", "x", 8);
        b.iter(|| train(&objective, &cls.table, 10))
    });
    group.bench_function("svm_10_epochs", |b| {
        let objective = SvmHingeObjective::new("y", "x", 8, 1e-3);
        b.iter(|| train(&objective, &cls.table, 10))
    });
    group.finish();
}

criterion_group!(benches, bench_sgd);
criterion_main!(benches);
