//! The row reductions in and out of cache: `batch_dot` and
//! `batch_squared_distances` over one **resident** 1024-row chunk (reused, so
//! it stays in L2) and **streaming** over ≥ 256 MB of separately allocated
//! 1024-row chunks (the engine's storage shape; far above the private caches
//! — where a shared L3 could hold that much, raise `STREAMED_BYTES`), on one
//! thread and on two.  Every case moves the same bytes per width, so the
//! GB/s table printed at the end reads straight across; hold the streaming
//! rows against `host.triad_all_cores_gb_per_s` from `madbench --trace 1`.

use criterion::{black_box, criterion_group, Criterion};
use madlib_linalg::kernels::{batch_dot, batch_squared_distances};

const CHUNK_ROWS: usize = 1024;
const STREAMED_BYTES: usize = 256 << 20;

type Kernel = fn(&[f64], &[f64], &mut [f64]);

/// Deterministic values in [-2, 2): no denormals, no specials, so the time
/// is the memory system's and not the FPU's slow paths.
fn values(n: usize, seed: u64) -> Vec<f64> {
    let step = 2 * seed + 1;
    (0..n as u64)
        .map(|i| (i.wrapping_mul(step) % 1000) as f64 / 250.0 - 2.0)
        .collect()
}

/// Runs `kernel` over `chunks`, split evenly across `threads` scoped threads,
/// each with its own output buffer.
fn sweep(kernel: Kernel, chunks: &[&[f64]], other: &[f64], threads: usize) {
    std::thread::scope(|scope| {
        for part in chunks.chunks(chunks.len().div_ceil(threads)) {
            scope.spawn(move || {
                let mut out = vec![0.0; CHUNK_ROWS];
                for chunk in part {
                    kernel(chunk, other, &mut out);
                    black_box(&mut out);
                }
            });
        }
    });
}

fn bench_reductions(c: &mut Criterion) -> Vec<usize> {
    let mut bytes_moved = Vec::new();
    let mut group = c.benchmark_group("reduce");
    group.sample_size(10);
    for width in [8, 64, 100] {
        let chunk_bytes = CHUNK_ROWS * width * 8;
        let count = STREAMED_BYTES.div_ceil(chunk_bytes);
        let other = values(width, 7);
        let table: Vec<Vec<f64>> = (0..count)
            .map(|i| values(CHUNK_ROWS * width, 11 + i as u64))
            .collect();
        let streamed: Vec<&[f64]> = table.iter().map(Vec::as_slice).collect();
        let resident = vec![streamed[0]; count];
        let kernels: [(&str, Kernel); 2] = [
            ("batch_dot", batch_dot),
            ("batch_squared_distances", batch_squared_distances),
        ];
        for (name, kernel) in kernels {
            for (shape, chunks, threads) in [
                ("resident", &resident, 1),
                ("streaming", &streamed, 1),
                ("streaming", &streamed, 2),
            ] {
                let id = format!("{name}/w{width}/{shape}/{threads}t");
                group.bench_function(id, |b| {
                    b.iter(|| sweep(kernel, black_box(chunks), black_box(&other), threads))
                });
                bytes_moved.push(count * chunk_bytes);
            }
        }
    }
    group.finish();
    bytes_moved
}

fn report(c: &mut Criterion) {
    let bytes_moved = bench_reductions(c);
    println!("\nmean GB/s of row data read:");
    for ((label, mean), bytes) in c.mean_times().iter().zip(bytes_moved) {
        let gb_per_s = bytes as f64 / mean.as_secs_f64() / 1e9;
        println!("{label:<52} {gb_per_s:>6.2} GB/s");
    }
}

criterion_group!(benches, report);

fn main() {
    println!(
        "kernel tier: {:?}; available parallelism: {}",
        madlib_linalg::kernels::active_path(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    benches();
}
