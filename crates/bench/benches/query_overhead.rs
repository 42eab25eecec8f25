//! Section 4.4: "the overhead for a single query is very low and only a
//! fraction of a second" — the fixed cost of one aggregate execution on a
//! tiny table.

use criterion::{criterion_group, criterion_main, Criterion};
use madlib_bench::{figure4_table, measure_linregr};
use madlib_engine::aggregate::CountAggregate;
use madlib_engine::Dataset;
use madlib_linalg::kernels::KernelGeneration;

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_overhead");
    let tiny = figure4_table(10, 2, 4, 1);
    group.bench_function("linregr_10_rows", |b| {
        b.iter(|| measure_linregr(&tiny, KernelGeneration::V03))
    });
    group.bench_function("count_star_10_rows", |b| {
        let dataset = Dataset::from_table(&tiny);
        b.iter(|| dataset.aggregate(&CountAggregate).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
