//! Scalar-reference tier: the portable, un-unrolled batched kernels.
//!
//! These loops are the semantic reference the vector body (`super::vector`,
//! which the `unrolled` and `simd` tiers instantiate) must match **bit for
//! bit**, and the code that body calls for the rows left over after its last
//! full lane group.  The rank-k update tiles the accumulator (`ROW_BLOCK` ×
//! `TILE`) for cache locality but leaves vectorization entirely to the
//! compiler; the reduction kernels (`batch_dot`, `batch_squared_distances`,
//! `gemv_acc`, `batch_closest_column`) are straight sequential loops, which
//! the autovectorizer *cannot* vectorize without reassociating the
//! accumulation — exactly the gap the vector body closes by vectorizing
//! across independent outputs instead.
//!
//! `MADLIB_SIMD=scalar` pins this tier, so `madbench`'s `linalg.*` metrics
//! @ `train_wide` measure the two instantiations of the vector body against
//! the reference they are defined by.

use crate::dense::DenseMatrix;

/// Row-block size for [`rank_k_update_lower`]: 64 rows of a ~1 000-wide chunk
/// stay L2-resident while the accumulator tile streams through L1.
pub(super) const ROW_BLOCK: usize = 64;

/// Accumulator tile edge for [`rank_k_update_lower`]: a 64×64 `f64` tile is
/// 32 KiB, half a typical L1d cache.
const TILE: usize = 64;

/// Scalar-reference `m += Σ_r x_r x_rᵀ` (lower triangle), tiled.
pub fn rank_k_update_lower(m: &mut DenseMatrix, xs: &[f64], width: usize) {
    debug_assert_eq!(m.rows(), width);
    debug_assert_eq!(m.cols(), width);
    debug_assert_eq!(xs.len() % width.max(1), 0);
    if width == 0 {
        return;
    }
    for row_block in xs.chunks(ROW_BLOCK * width) {
        for i0 in (0..width).step_by(TILE) {
            let i_end = (i0 + TILE).min(width);
            for j0 in (0..=i0).step_by(TILE) {
                for x in row_block.chunks_exact(width) {
                    for i in i0..i_end {
                        let xi = x[i];
                        let j_end = (j0 + TILE).min(i + 1);
                        let row = m.row_slice_mut(i);
                        for (acc, xj) in row[j0..j_end].iter_mut().zip(&x[j0..j_end]) {
                            *acc += xi * xj;
                        }
                    }
                }
            }
        }
    }
}

/// Scalar-reference weighted rank-k update (lower triangle), tiled.
pub fn weighted_rank_k_update_lower(
    m: &mut DenseMatrix,
    xs: &[f64],
    weights: &[f64],
    width: usize,
) {
    debug_assert_eq!(m.rows(), width);
    debug_assert_eq!(m.cols(), width);
    debug_assert_eq!(xs.len(), weights.len() * width);
    if width == 0 {
        return;
    }
    for (block_idx, row_block) in xs.chunks(ROW_BLOCK * width).enumerate() {
        let block_weights = &weights[block_idx * ROW_BLOCK..];
        for i0 in (0..width).step_by(TILE) {
            let i_end = (i0 + TILE).min(width);
            for j0 in (0..=i0).step_by(TILE) {
                for (x, w) in row_block.chunks_exact(width).zip(block_weights) {
                    for i in i0..i_end {
                        let wxi = w * x[i];
                        let j_end = (j0 + TILE).min(i + 1);
                        let row = m.row_slice_mut(i);
                        for (acc, xj) in row[j0..j_end].iter_mut().zip(&x[j0..j_end]) {
                            *acc += wxi * xj;
                        }
                    }
                }
            }
        }
    }
}

/// Scalar-reference `acc += Σ_r y_r · x_r`.
pub fn xty_update(acc: &mut [f64], xs: &[f64], ys: &[f64], width: usize) {
    debug_assert_eq!(xs.len(), ys.len() * width);
    if width == 0 {
        return;
    }
    for (x, y) in xs.chunks_exact(width).zip(ys) {
        for (a, xi) in acc.iter_mut().zip(x) {
            *a += xi * y;
        }
    }
}

/// Scalar-reference batched dot product `out[r] = x_r · w`.
pub fn batch_dot(xs: &[f64], w: &[f64], out: &mut [f64]) {
    let width = w.len();
    debug_assert_eq!(xs.len(), out.len() * width);
    if width == 0 {
        out.fill(0.0);
        return;
    }
    for (x, o) in xs.chunks_exact(width).zip(out.iter_mut()) {
        let mut acc = 0.0;
        for (xi, wi) in x.iter().zip(w) {
            acc += xi * wi;
        }
        *o = acc;
    }
}

/// Scalar-reference batched squared Euclidean distances to `center`.
pub fn batch_squared_distances(xs: &[f64], center: &[f64], out: &mut [f64]) {
    let width = center.len();
    debug_assert_eq!(xs.len(), out.len() * width);
    if width == 0 {
        out.fill(0.0);
        return;
    }
    for (x, o) in xs.chunks_exact(width).zip(out.iter_mut()) {
        let mut acc = 0.0;
        for (xi, ci) in x.iter().zip(center) {
            let d = xi - ci;
            acc += d * d;
        }
        *o = acc;
    }
}

/// Scalar-reference batched closest-column assignment.
///
/// For every row the candidate columns are scanned in order and the first
/// strict minimum wins (`d < best`, so NaN distances never displace the
/// incumbent and ties keep the earliest column) — the tie-break contract of
/// `array_ops::closest_column`.  `distances`, when given, receives the
/// winner's squared distance per row: the sum `batch_squared_distances`
/// computes against that column, or `+∞` for a row no column can win.
pub fn batch_closest_column(
    columns: &[Vec<f64>],
    xs: &[f64],
    width: usize,
    out: &mut [usize],
    mut distances: Option<&mut [f64]>,
) {
    debug_assert_eq!(xs.len(), out.len() * width);
    debug_assert!(columns.iter().all(|c| c.len() == width));
    debug_assert!(distances.as_ref().is_none_or(|d| d.len() == out.len()));
    for (r, slot) in out.iter_mut().enumerate() {
        let point = &xs[r * width..(r + 1) * width];
        let mut best = (0usize, f64::INFINITY);
        for (idx, col) in columns.iter().enumerate() {
            let mut d = 0.0;
            for (x, c) in point.iter().zip(col) {
                let diff = x - c;
                d += diff * diff;
            }
            if d < best.1 {
                best = (idx, d);
            }
        }
        *slot = best.0;
        if let Some(distances) = distances.as_deref_mut() {
            distances[r] = best.1;
        }
    }
}

/// Scalar-reference `y += alpha * A * x` (dense GEMV, no allocation).
pub fn gemv_acc(alpha: f64, a: &DenseMatrix, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(a.cols(), x.len());
    debug_assert_eq!(a.rows(), y.len());
    for (r, yr) in y.iter_mut().enumerate() {
        let row = a.row_slice(r);
        let mut acc = 0.0;
        for (av, xv) in row.iter().zip(x) {
            acc += av * xv;
        }
        *yr += alpha * acc;
    }
}

/// Scalar-reference GEMM accumulation `out += A * B`.
///
/// The loop order (`i`, then `k` with an `a[i][k] == 0.0` skip, then a
/// contiguous `j` sweep) is the historical `DenseMatrix::matmul` order; the
/// zero-skip is part of the bit-level contract — skipping instead of adding
/// `0.0 * b` matters when `b` holds NaN or ±∞ and when signed zeros would
/// combine — so every tier preserves it per `(i, k)` pair.
pub fn gemm_acc(out: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
    debug_assert_eq!(a.cols(), b.rows());
    debug_assert_eq!(out.rows(), a.rows());
    debug_assert_eq!(out.cols(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            let other_row = b.row_slice(k);
            let out_row = out.row_slice_mut(i);
            for (o, bv) in out_row.iter_mut().zip(other_row) {
                *o += aik * bv;
            }
        }
    }
}
