//! Portable tier: the shared vector body (`super::vector`) instantiated at
//! `[f64; 4]`.
//!
//! Plain-Rust lane arrays give every platform the benefit of vectorizing
//! **across independent outputs** — the autovectorizer can map a lane array
//! onto packed registers, and even where it does not, four independent
//! addition chains give the out-of-order core real ILP that the reference
//! tier's single serial reduction chain denies it.  This is the tier
//! `MADLIB_SIMD=off` pins and the default on hosts without AVX2.
//!
//! Every entry point panics on a mis-shaped call, in release builds too.

use crate::dense::DenseMatrix;

use super::vector;

/// Portable `m += Σ_r x_r x_rᵀ` (lower triangle).
pub fn rank_k_update_lower(m: &mut DenseMatrix, xs: &[f64], width: usize) {
    vector::rank_k_update_lower::<[f64; 4]>(m, xs, width);
}

/// Portable weighted rank-k update (lower triangle).
pub fn weighted_rank_k_update_lower(
    m: &mut DenseMatrix,
    xs: &[f64],
    weights: &[f64],
    width: usize,
) {
    vector::weighted_rank_k_update_lower::<[f64; 4]>(m, xs, weights, width);
}

/// Portable batched dot product `out[r] = x_r · w`.
pub fn batch_dot(xs: &[f64], w: &[f64], out: &mut [f64]) {
    vector::batch_dot::<[f64; 4]>(xs, w, out);
}

/// Portable batched squared Euclidean distances to `center`.
pub fn batch_squared_distances(xs: &[f64], center: &[f64], out: &mut [f64]) {
    vector::batch_squared_distances::<[f64; 4]>(xs, center, out);
}

/// Portable batched closest-column assignment, optionally reporting each
/// row's winning squared distance.
pub fn batch_closest_column(
    columns: &[Vec<f64>],
    xs: &[f64],
    width: usize,
    out: &mut [usize],
    distances: Option<&mut [f64]>,
) {
    vector::batch_closest_column::<[f64; 4]>(columns, xs, width, out, distances);
}

/// Portable `y += alpha * A * x`.
pub fn gemv_acc(alpha: f64, a: &DenseMatrix, x: &[f64], y: &mut [f64]) {
    vector::gemv_acc::<[f64; 4]>(alpha, a, x, y);
}

/// Portable column sweep `out[c] ± Σ_k m[k·stride + c] · x[k]`.
pub fn column_sweep(out: &mut [f64], m: &[f64], stride: usize, x: &[f64], subtract: bool) {
    vector::column_sweep::<[f64; 4]>(out, m, stride, x, subtract);
}

/// Portable symmetric rank-2 update `z[j][k] -= u[j]·e[k] + e[j]·u[k]`.
pub fn symmetric_rank2_update(z: &mut [f64], stride: usize, u: &[f64], e: &[f64]) {
    vector::symmetric_rank2_update::<[f64; 4]>(z, stride, u, e);
}

/// Portable inverse of a lower-triangular matrix.
pub fn lower_triangular_inverse(l: &[f64], n: usize, out: &mut [f64]) {
    vector::lower_triangular_inverse::<[f64; 4]>(l, n, out);
}

/// Portable GEMM accumulation `out += A * B`.
pub fn gemm_acc(out: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
    vector::gemm_acc::<[f64; 4]>(out, a, b);
}
