//! Figure 4 (version axis): linear-regression aggregate time for the three
//! inner-loop generations (v0.1alpha, v0.2.1beta, v0.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use madlib_bench::{figure4_table, measure_linregr};
use madlib_linalg::kernels::KernelGeneration;

fn bench_versions(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_versions");
    group.sample_size(10);
    let table = figure4_table(20_000, 40, 4, 42);
    for generation in KernelGeneration::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(generation.label()),
            &generation,
            |b, &generation| b.iter(|| measure_linregr(&table, generation)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_versions);
criterion_main!(benches);
