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
    let data = gaussian_blobs(5_000, 4, 4, 1.0, 4, 5).unwrap();
    group.bench_function("fit_5000x4_k4", |b| {
        b.iter(|| {
            let session = Session::new(Database::new(4).unwrap());
            session
                .train(
                    &KMeans::new("coords", 4).unwrap().with_max_iterations(10),
                    &Dataset::from_table(&data.table),
                )
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
