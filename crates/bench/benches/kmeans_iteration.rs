//! Section 4.3: k-means Lloyd iterations over the engine (large-state
//! iteration pattern).

use criterion::{criterion_group, criterion_main, Criterion};
use madlib_core::cluster::KMeans;
use madlib_core::datasets::gaussian_blobs;
use madlib_core::train::Session;
use madlib_engine::{Database, Dataset};

fn bench_kmeans(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans");
    group.sample_size(10);
    // (name, rows, dims, k, blob σ, iteration cap): the narrow case settles
    // in two passes and is all per-iteration overhead; the wide one — blobs
    // that overlap, so all five passes run — is a cold fit where seeding and
    // the inertia pass show beside the Lloyd passes.
    for (name, rows, dims, k, spread, max_iterations) in [
        ("fit_5000x4_k4", 5_000, 4, 4, 1.0, 10),
        ("cold_fit_20000x64_k16_5it", 20_000, 64, 16, 20.0, 5),
    ] {
        let data = gaussian_blobs(rows, k, dims, spread, 4, 5).unwrap();
        let estimator = KMeans::new("coords", k)
            .unwrap()
            .with_max_iterations(max_iterations);
        group.bench_function(name, |b| {
            b.iter(|| {
                let session = Session::new(Database::new(4).unwrap());
                session
                    .train(&estimator, &Dataset::from_table(&data.table))
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
