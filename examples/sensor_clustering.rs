//! Sensor-fleet clustering: the paper's Section 4.3 k-means pattern applied
//! to a synthetic telemetry workload, plus streaming sketches over the same
//! feed (distinct devices and latency quantiles).
//!
//! The feed plants four operating modes (Gaussian blobs, σ = 1.5); the
//! example exits non-zero unless the fit converged with a centroid within
//! 3 σ of every one of them, so CI running it guards the k-means fit —
//! seeding, the Lloyd passes and the inertia pass — end to end.

use madlib::engine::{Database, Dataset};
use madlib::methods::cluster::{KMeans, SeedingMethod};
use madlib::methods::datasets::gaussian_blobs;
use madlib::methods::Session;
use madlib::sketch::{FlajoletMartin, QuantileSummary};

fn main() {
    let session = Session::new(Database::new(4).expect("segment count is positive"));

    // 10 000 telemetry points in 6 dimensions drawn from 4 operating modes.
    let spread = 1.5;
    let data = gaussian_blobs(10_000, 4, 6, spread, 4, 99).expect("generator succeeds");
    let model = session
        .train(
            &KMeans::new("coords", 4)
                .expect("k is positive")
                .with_seeding(SeedingMethod::KMeansPlusPlus)
                .with_max_iterations(30),
            &Dataset::from_table(&data.table),
        )
        .expect("clustering succeeds");

    println!(
        "k-means: {} iterations, converged = {}, inertia = {:.0}",
        model.iterations, model.converged, model.inertia
    );
    for (i, centroid) in model.centroids.iter().enumerate() {
        let rounded: Vec<String> = centroid.iter().map(|c| format!("{c:.1}")).collect();
        println!("  centroid {i}: [{}]", rounded.join(", "));
    }

    // Streaming descriptive statistics over the same feed.
    let mut devices = FlajoletMartin::new(64);
    let mut latencies = QuantileSummary::new(0.01);
    for (i, row) in data.table.iter().enumerate() {
        let coords = row.get(1).as_double_array().expect("coords column");
        devices.update(&format!("device_{}", i % 1_237));
        latencies.insert(coords[0].abs());
    }
    println!(
        "\ndistinct devices (Flajolet-Martin estimate): {:.0} (true 1237)",
        devices.estimate()
    );
    println!(
        "latency p50 / p95 / p99: {:.2} / {:.2} / {:.2}",
        latencies.quantile(0.5).unwrap_or(f64::NAN),
        latencies.quantile(0.95).unwrap_or(f64::NAN),
        latencies.quantile(0.99).unwrap_or(f64::NAN),
    );

    // Each planted mode's distance to its nearest fitted centroid.
    let misses: Vec<f64> = data
        .true_centers
        .iter()
        .map(|mode| {
            let nearest = model.predict(mode).expect("same dimension");
            let squared: f64 = mode
                .iter()
                .zip(&model.centroids[nearest])
                .map(|(m, c)| (m - c) * (m - c))
                .sum();
            squared.sqrt()
        })
        .collect();
    if !model.converged || misses.iter().any(|&miss| miss > 3.0 * spread) {
        eprintln!(
            "planted structure lost: converged = {}, distance from each operating mode to its \
             nearest centroid {misses:.2?} (want <= {:.1})",
            model.converged,
            3.0 * spread
        );
        std::process::exit(1);
    }
}
