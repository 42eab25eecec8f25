//! Section 4.2: one IRLS fit of binary logistic regression (driver loop +
//! per-iteration parallel aggregate), at the paper's narrow shape and at a
//! width where the weighted rank-k update `XᵀDX` carries the time.

use criterion::{criterion_group, criterion_main, Criterion};
use madlib_core::datasets::logistic_regression_data;
use madlib_core::regress::LogisticRegression;
use madlib_core::train::Session;
use madlib_engine::{Database, Dataset};

fn bench_irls(c: &mut Criterion) {
    let mut group = c.benchmark_group("logistic_irls");
    group.sample_size(10);
    for (rows, width, iterations) in [(5_000, 8, 10), (20_000, 100, 5)] {
        let data = logistic_regression_data(rows, width, 4, 3).unwrap();
        group.bench_function(format!("fit_{rows}x{width}"), |b| {
            b.iter(|| {
                let session = Session::new(Database::new(4).unwrap());
                session
                    .train(
                        &LogisticRegression::new("y", "x").with_max_iterations(iterations),
                        &Dataset::from_table(&data.table),
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_irls);
criterion_main!(benches);
