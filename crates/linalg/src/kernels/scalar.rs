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

/// Scalar-reference `acc += Σ_r y_r · x_r`: the row loop the dispatched
/// [`super::xty_update`] — a [`column_sweep`] on every tier — is held to.
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

/// Scalar-reference column sweep: `out[c] ± Σ_k m[k·stride + c] · x[k]` for
/// every `c < out.len()`, each chain seeded from `out[c]` and taking its terms
/// in `k` order (`mul`, then `add` or — with `subtract` — `sub`).
pub fn column_sweep(out: &mut [f64], m: &[f64], stride: usize, x: &[f64], subtract: bool) {
    debug_assert!(x.is_empty() || out.is_empty() || m.len() >= (x.len() - 1) * stride + out.len());
    for (k, &xk) in x.iter().enumerate() {
        let row = &m[k * stride..][..out.len()];
        for (o, &mk) in out.iter_mut().zip(row) {
            if subtract {
                *o -= mk * xk;
            } else {
                *o += mk * xk;
            }
        }
    }
}

/// Scalar-reference symmetric rank-2 update of the leading `m × m` block of
/// row-major `z` (row stride `stride`, `m = u.len()`):
/// `z[j][k] -= u[j]·e[k] + e[j]·u[k]` for every `j, k < m`.
pub fn symmetric_rank2_update(z: &mut [f64], stride: usize, u: &[f64], e: &[f64]) {
    let m = u.len();
    debug_assert_eq!(e.len(), m);
    debug_assert!(m == 0 || (stride >= m && z.len() >= (m - 1) * stride + m));
    for (j, (&uj, &ej)) in u.iter().zip(e).enumerate() {
        let row = &mut z[j * stride..][..m];
        for ((zjk, &ek), &uk) in row.iter_mut().zip(e).zip(u) {
            *zjk -= uj * ek + ej * uk;
        }
    }
}

/// Scalar-reference inverse of the lower-triangular `n × n` row-major `l`
/// into row-major `out` (whose upper triangle is left as found), by forward
/// substitution one column at a time: `out[j][j] = 1 / l[j][j]` and, below
/// it, `out[i][j] = (0 − Σ_{k=j}^{i−1} l[i][k]·out[k][j]) / l[i][i]`, the sum
/// taken in `k` order.
pub fn lower_triangular_inverse(l: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(out.len(), n * n);
    lower_inverse_columns(l, n, out, 0..n, n);
}

/// [`lower_triangular_inverse`] for the columns in `columns` and the rows
/// above `rows_end` only (each column is independent of the others, and a
/// row needs only the rows above it).
pub(super) fn lower_inverse_columns(
    l: &[f64],
    n: usize,
    out: &mut [f64],
    columns: std::ops::Range<usize>,
    rows_end: usize,
) {
    for j in columns {
        out[j * n + j] = 1.0 / l[j * n + j];
        for i in j + 1..rows_end {
            let mut sum = 0.0;
            for k in j..i {
                sum -= l[i * n + k] * out[k * n + j];
            }
            out[i * n + j] = sum / l[i * n + i];
        }
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
