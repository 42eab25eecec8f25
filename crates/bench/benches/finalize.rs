//! The linear-regression final function, piece by piece: the eigenvalue
//! probe, the Cholesky factor, `Cholesky::inverse`, the whole
//! `symmetric_inverse_with` they make up, and a `Session::refresh` with no
//! new rows (which is that final function plus the p-values), at the widths
//! `madbench`'s workloads train at: 8 (`grouped_zipf`), 32 (`ingest_recover`,
//! `mixed_htap`), 64 (`serve_stream`) and 100 (`train_wide`).  A sample is
//! a batch of calls (two at width 100, 312 at width 8); the table printed at
//! the end is the mean µs per call.

use criterion::{black_box, criterion_group, Criterion};
use madlib_core::datasets::linear_regression_data;
use madlib_core::regress::LinearRegression;
use madlib_core::train::Session;
use madlib_engine::Database;
use madlib_linalg::decomposition::{
    symmetric_inverse_with, Cholesky, EigenWorkspace, SymmetricEigen,
};
use madlib_linalg::DenseMatrix;

const WIDTHS: [usize; 4] = [8, 32, 64, 100];
const PIECES: [&str; 5] = [
    "eigenvalue_probe",
    "cholesky",
    "cholesky_inverse",
    "symmetric_inverse_with",
    "refresh",
];

/// `XᵀX` of a deterministic pseudo-random `4·width × width` design in [-1, 1).
fn gram(width: usize) -> DenseMatrix {
    let rows = 4 * width;
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let x: Vec<f64> = (0..rows * width)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect();
    let mut a = DenseMatrix::zeros(width, width);
    for r in x.chunks_exact(width) {
        for i in 0..width {
            for j in 0..=i {
                let v = a.get(i, j) + r[i] * r[j];
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
    }
    a
}

/// Calls per timed sample: enough that a width-8 sample is not one timer
/// read's worth of work.
fn calls(width: usize) -> usize {
    (20_000 / (width * width)).max(1)
}

fn bench_finalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("finalize");
    group.sample_size(100);
    for width in WIDTHS {
        let calls = calls(width);
        let a = gram(width);
        let chol = Cholesky::new(&a).expect("XᵀX of a full-rank design");
        let mut workspace = EigenWorkspace::new();
        group.bench_function(format!("eigenvalue_probe/w{width}"), |b| {
            b.iter(|| {
                for _ in 0..calls {
                    black_box(
                        SymmetricEigen::eigenvalues_with(black_box(&a), &mut workspace).unwrap(),
                    );
                }
            })
        });
        group.bench_function(format!("cholesky/w{width}"), |b| {
            b.iter(|| {
                for _ in 0..calls {
                    black_box(Cholesky::new(black_box(&a)).unwrap());
                }
            })
        });
        group.bench_function(format!("cholesky_inverse/w{width}"), |b| {
            b.iter(|| {
                for _ in 0..calls {
                    black_box(black_box(&chol).inverse());
                }
            })
        });
        group.bench_function(format!("symmetric_inverse_with/w{width}"), |b| {
            b.iter(|| {
                for _ in 0..calls {
                    black_box(
                        symmetric_inverse_with(black_box(&a), 1e-10, &mut workspace).unwrap(),
                    );
                }
            })
        });

        let data = linear_regression_data(20 * width, width, 0.1, 4, 7).unwrap();
        let session = Session::new(Database::new(4).unwrap());
        session
            .database()
            .register_table("points", data.table)
            .unwrap();
        let estimator = LinearRegression::new("y", "x");
        session
            .train_incremental(&estimator, "points", "model")
            .unwrap();
        group.bench_function(format!("refresh/w{width}"), |b| {
            b.iter(|| {
                for _ in 0..calls {
                    black_box(session.refresh(&estimator, "points", "model").unwrap());
                }
            })
        });
    }
    group.finish();
}

fn report(c: &mut Criterion) {
    bench_finalize(c);
    println!("\nmean µs per call:");
    print!("{:<24}", "");
    for width in WIDTHS {
        print!("{:>10}", format!("w{width}"));
    }
    println!();
    let means = c.mean_times();
    for piece in PIECES {
        print!("{piece:<24}");
        for width in WIDTHS {
            let label = format!("finalize/{piece}/w{width}");
            let mean = means.iter().find(|(l, _)| *l == label).map(|(_, d)| *d);
            let per_call = mean.map_or(f64::NAN, |d| d.as_secs_f64() * 1e6 / calls(width) as f64);
            print!("{per_call:>10.2}");
        }
        println!();
    }
}

criterion_group!(benches, report);

fn main() {
    println!("kernel tier: {:?}", madlib_linalg::kernels::active_path());
    benches();
}
