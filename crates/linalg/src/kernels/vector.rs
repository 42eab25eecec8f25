//! The one vector body of every batched kernel, generic over a 4-lane type.
//!
//! [`Lanes`] is the thin abstraction the kernels are written against: four
//! `f64`s that can be loaded, combined lane-wise and stored.  It has exactly
//! two implementations — `[f64; 4]` here (plain Rust, every platform) and
//! `__m256d` in [`super::simd`] (AVX2) — and the [`super::unrolled`] and
//! [`super::simd`] tiers are nothing but this module instantiated at one or
//! the other, so the two fast tiers run the same algorithm by construction.
//!
//! Bit-identity with [`super::scalar`] is structural:
//!
//! * Rank-k/GEMM accumulator tiles are **seeded from the output matrix** and
//!   stored back when the tile retires.  A store/load round-trip of an `f64`
//!   is exact, so each element's addition chain is the chain the reference
//!   produces, merely re-batched.
//! * Reduction kernels put one *row* in each lane ([`Lanes::from_array`]);
//!   within a lane the elements accumulate left-to-right exactly as the
//!   reference loop does.
//! * [`Lanes`] offers `mul` and `add` but no fused multiply-add, so the
//!   intermediate rounding of `a * b` cannot be skipped by accident.
//! * Rows left over after the last full lane group are handed to the
//!   reference kernel itself on the tail sub-slices.  The row-sweep kernels
//!   (`column_sweep`, `symmetric_rank2_update`) instead cover columns past
//!   the last whole lane with one more lane over the last four columns,
//!   computed from the entries as found: a column two lanes share is
//!   written twice with the same bits.
//!
//! Every body is safe Rust: lane loads and stores go through a slice, so a
//! mis-shaped call panics on a bounds check (or on the shape `assert!` at the
//! kernel's entry) instead of reading out of bounds.  The bodies are
//! `#[inline(always)]` so that the `__m256d` instantiation is compiled inside
//! the `#[target_feature(enable = "avx2")]` frame of its `simd` wrapper; for
//! the same reason a body never wraps a lane operation in a closure, which
//! would be a separate function outside that frame.

use std::array::from_fn;
use std::slice::ChunksExact;

use crate::dense::DenseMatrix;

use super::scalar::{self, ROW_BLOCK};

/// Four `f64` lanes.  All operations are lane-wise and IEEE-exact (one
/// rounding per `add`/`sub`/`mul`).
pub(super) trait Lanes: Copy {
    /// Whether the register file holds a 4×8 rank-k tile — eight lane
    /// accumulators plus their operands.  Where it does not, the tile would
    /// live on the stack and every accumulation would round-trip through
    /// memory, so the update stays with 4×4 tiles.
    const WIDE_TILES: bool;
    /// All four lanes set to `v`.
    fn splat(v: f64) -> Self;
    /// `src[at..at + 4]`.  Panics when out of bounds.
    fn load(src: &[f64], at: usize) -> Self;
    /// The given lanes in order — how one element of each of four rows is
    /// gathered.
    fn from_array(lanes: [f64; 4]) -> Self;
    /// Writes the lanes to `dst[at..at + 4]`.  Panics when out of bounds.
    fn store(self, dst: &mut [f64], at: usize);
    /// Lane-wise `self + other`.
    fn add(self, other: Self) -> Self;
    /// Lane-wise `self - other`.
    fn sub(self, other: Self) -> Self;
    /// Lane-wise `self * other`.
    fn mul(self, other: Self) -> Self;
    /// Lane-wise `if self < bound { then } else { otherwise }` with the
    /// ordered comparison of the scalar `<`: false whenever a NaN is involved.
    fn select_lt(self, bound: Self, then: Self, otherwise: Self) -> Self;
    /// The lanes in order.
    fn to_array(self) -> [f64; 4];
}

impl Lanes for [f64; 4] {
    /// Baseline x86-64 gives a lane array two of its sixteen 128-bit
    /// registers: eight accumulators would take them all.
    const WIDE_TILES: bool = false;
    #[inline(always)]
    fn splat(v: f64) -> Self {
        [v; 4]
    }
    #[inline(always)]
    fn load(src: &[f64], at: usize) -> Self {
        let s = &src[at..at + 4];
        [s[0], s[1], s[2], s[3]]
    }
    #[inline(always)]
    fn from_array(lanes: [f64; 4]) -> Self {
        lanes
    }
    #[inline(always)]
    fn store(self, dst: &mut [f64], at: usize) {
        dst[at..at + 4].copy_from_slice(&self);
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        from_fn(|l| self[l] + o[l])
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        from_fn(|l| self[l] - o[l])
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        from_fn(|l| self[l] * o[l])
    }
    #[inline(always)]
    fn select_lt(self, bound: Self, then: Self, otherwise: Self) -> Self {
        from_fn(|l| {
            if self[l] < bound[l] {
                then[l]
            } else {
                otherwise[l]
            }
        })
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        self
    }
}

/// `m += Σ_r x_r x_rᵀ` (lower triangle).
#[inline(always)]
pub(super) fn rank_k_update_lower<V: Lanes>(m: &mut DenseMatrix, xs: &[f64], width: usize) {
    assert_eq!(xs.len() % width.max(1), 0, "xs is not whole rows");
    rank_k::<V>(m, xs, None, width);
}

/// `m += Σ_r w_r · x_r x_rᵀ` (lower triangle).
#[inline(always)]
pub(super) fn weighted_rank_k_update_lower<V: Lanes>(
    m: &mut DenseMatrix,
    xs: &[f64],
    weights: &[f64],
    width: usize,
) {
    assert_eq!(xs.len(), weights.len() * width, "one weight per row");
    rank_k::<V>(m, xs, Some(weights), width);
}

/// The (optionally weighted) rank-k update, one `ROW_BLOCK` of rows at a time
/// so a block stays cache-resident while every tile of the triangle sweeps it.
#[inline(always)]
fn rank_k<V: Lanes>(m: &mut DenseMatrix, xs: &[f64], weights: Option<&[f64]>, width: usize) {
    assert_eq!((m.rows(), m.cols()), (width, width), "m is width × width");
    if width == 0 {
        return;
    }
    let md = m.as_mut_slice();
    for (block_idx, block) in xs.chunks(ROW_BLOCK * width).enumerate() {
        let block_weights = weights.map(|w| &w[block_idx * ROW_BLOCK..]);
        let mut i0 = 0;
        while i0 + 4 <= width {
            // Largest multiple of 4 that is ≤ i0 + 1: every row of the strip
            // covers columns [0, j_full), so full register tiles apply there.
            let j_full = (i0 + 1) & !3;
            let mut j0 = 0;
            while V::WIDE_TILES && j0 + 8 <= j_full {
                rank_k_tile::<V, 2>(md, block, width, i0, j0, block_weights);
                j0 += 8;
            }
            while j0 + 4 <= j_full {
                rank_k_tile::<V, 1>(md, block, width, i0, j0, block_weights);
                j0 += 4;
            }
            rank_k_edge(md, block, width, i0..i0 + 4, j_full, block_weights);
            i0 += 4;
        }
        rank_k_edge(md, block, width, i0..width, 0, block_weights);
    }
}

/// A 4×(4·NJ) accumulator tile at (`i0`, `j0`): seeded from `md`, updated
/// across every row of `block`, stored back once.  `weights[r]` scales row
/// `r`'s contribution as `(w · x_r[i]) · x_r[j]`, the reference's rounding.
#[inline(always)]
fn rank_k_tile<V: Lanes, const NJ: usize>(
    md: &mut [f64],
    block: &[f64],
    width: usize,
    i0: usize,
    j0: usize,
    weights: Option<&[f64]>,
) {
    let mut acc = [[V::splat(0.0); NJ]; 4];
    for (ii, row_acc) in acc.iter_mut().enumerate() {
        for (jj, a) in row_acc.iter_mut().enumerate() {
            *a = V::load(md, (i0 + ii) * width + j0 + 4 * jj);
        }
    }
    for (r, x) in block.chunks_exact(width).enumerate() {
        // One bounds check per operand per row; the loads below index
        // sub-slices of known length.
        let (xi, xj) = (&x[i0..i0 + 4], &x[j0..j0 + 4 * NJ]);
        let mut xjv = [V::splat(0.0); NJ];
        for (jj, v) in xjv.iter_mut().enumerate() {
            *v = V::load(xj, 4 * jj);
        }
        let w = weights.map(|w| w[r]);
        for (row_acc, &xi) in acc.iter_mut().zip(xi) {
            let xiv = V::splat(match w {
                Some(w) => w * xi,
                None => xi,
            });
            for (a, &v) in row_acc.iter_mut().zip(&xjv) {
                *a = a.add(xiv.mul(v));
            }
        }
    }
    for (ii, row_acc) in acc.iter().enumerate() {
        for (jj, a) in row_acc.iter().enumerate() {
            a.store(md, (i0 + ii) * width + j0 + 4 * jj);
        }
    }
}

/// What the register tiles cannot cover: rows `rows`, columns `j_lo..=i` (the
/// diagonal end of a strip, or a last strip of fewer than four rows).
/// Element-major with the row loop innermost — each element's additions still
/// happen in row order.
fn rank_k_edge(
    md: &mut [f64],
    block: &[f64],
    width: usize,
    rows: std::ops::Range<usize>,
    j_lo: usize,
    weights: Option<&[f64]>,
) {
    for i in rows {
        for j in j_lo..=i {
            let mut acc = md[i * width + j];
            match weights {
                None => {
                    for x in block.chunks_exact(width) {
                        acc += x[i] * x[j];
                    }
                }
                Some(w) => {
                    for (x, wr) in block.chunks_exact(width).zip(w) {
                        acc += (wr * x[i]) * x[j];
                    }
                }
            }
            md[i * width + j] = acc;
        }
    }
}

/// `acc += Σ_r y_r · x_r`: per row a 4-wide sweep over the independent
/// accumulator elements.  Only the `__m256d` tier instantiates it — the
/// portable tier's `xty_update` is the reference loop.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(super) fn xty_update<V: Lanes>(acc: &mut [f64], xs: &[f64], ys: &[f64], width: usize) {
    assert_eq!(xs.len(), ys.len() * width, "one y per row");
    assert_eq!(acc.len(), width, "acc is one row wide");
    if width == 0 {
        return;
    }
    let full = width & !3;
    for (x, &y) in xs.chunks_exact(width).zip(ys) {
        let yv = V::splat(y);
        for j in (0..full).step_by(4) {
            V::load(acc, j).add(V::load(x, j).mul(yv)).store(acc, j);
        }
        for (a, xi) in acc[full..].iter_mut().zip(&x[full..]) {
            *a += xi * y;
        }
    }
}

/// The per-element term a row reduction accumulates.
#[derive(Clone, Copy)]
enum Term {
    /// `x · c` — dot products.
    Product,
    /// `(x − c)²` — squared Euclidean distances.
    SquaredDifference,
}

/// Reduces each of the `4 · GROUPS` given rows (each at least `other.len()`
/// long; panics otherwise) against `other`, one row per lane: every lane
/// starts at `0.0` and adds its row's terms left to right, so each lane holds
/// the reference's sequential sum.  `GROUPS` independent accumulators advance
/// together to overlap the latency of the dependent additions.  Which rows
/// share a pass is the caller's choice and invisible in any row's sum.
#[inline(always)]
fn reduce_rows<V: Lanes, const GROUPS: usize>(
    term: Term,
    rows: [[&[f64]; 4]; GROUPS],
    other: &[f64],
) -> [V; GROUPS] {
    // Every row re-sliced to `other`'s length: the bounds check is paid here,
    // once per row, and the element loop needs none.
    let lanes: [[&[f64]; 4]; GROUPS] = from_fn(|g| from_fn(|l| &rows[g][l][..other.len()]));
    let mut acc = [V::splat(0.0); GROUPS];
    for (k, &c) in other.iter().enumerate() {
        let cv = V::splat(c);
        for (a, l) in acc.iter_mut().zip(&lanes) {
            let x = V::from_array([l[0][k], l[1][k], l[2][k], l[3][k]]);
            *a = a.add(match term {
                Term::Product => x.mul(cv),
                Term::SquaredDifference => {
                    let d = x.sub(cv);
                    d.mul(d)
                }
            });
        }
    }
    acc
}

/// Splits row-major `xs` into the whole groups of `group` rows the vector
/// body takes, and says how many rows that is; the rest go to the reference
/// kernel.  At width 0 `xs` is empty, so there are no groups whatever the
/// chunk size — the `max(1)` only keeps it legal — and every row is "rest".
fn row_groups(xs: &[f64], width: usize, group: usize) -> (ChunksExact<'_, f64>, usize) {
    let groups = xs.chunks_exact(group * width.max(1));
    let full = groups.len() * group;
    (groups, full)
}

/// Rows a [`batch_reduce`] pass reduces together — the lanes of its two
/// accumulators — and so the sequential streams it reads a chunk as.
const STREAMS: usize = 8;

/// `out[r] = Σ_k term(x_r[k], other[k])`, the rows walked as [`STREAMS`]
/// far-apart sequential streams: lane `l` owns the contiguous run of rows
/// `l · run .. (l + 1) · run` (`run = n / STREAMS`) and every pass takes row
/// `i` of each run, so a chunk streamed from DRAM is eight forward walks,
/// each in pages of its own, that the hardware prefetchers follow (the
/// module docs of [`super`] say why adjacent rows are not).  The
/// `n mod STREAMS` rows after the runs are the reference kernel's.
#[inline(always)]
fn batch_reduce<V: Lanes>(term: Term, xs: &[f64], other: &[f64], out: &mut [f64]) {
    let width = other.len();
    assert_eq!(xs.len(), out.len() * width, "one output per row");
    // At width 0 there is nothing to stream: every row is "rest".
    let run = if width == 0 { 0 } else { out.len() / STREAMS };
    let (streamed, xs) = xs.split_at(STREAMS * run * width);
    let (sums, out) = out.split_at_mut(STREAMS * run);
    let runs: [&[f64]; STREAMS] = from_fn(|s| &streamed[s * run * width..][..run * width]);
    for i in 0..run {
        let at = i * width;
        let pass = from_fn(|g| from_fn(|l| &runs[4 * g + l][at..at + width]));
        let acc = reduce_rows::<V, 2>(term, pass, other);
        for (g, acc) in acc.iter().enumerate() {
            for (l, sum) in acc.to_array().into_iter().enumerate() {
                sums[(4 * g + l) * run + i] = sum;
            }
        }
    }
    match term {
        Term::Product => scalar::batch_dot(xs, other, out),
        Term::SquaredDifference => scalar::batch_squared_distances(xs, other, out),
    }
}

/// Batched dot product `out[r] = x_r · w`.
#[inline(always)]
pub(super) fn batch_dot<V: Lanes>(xs: &[f64], w: &[f64], out: &mut [f64]) {
    batch_reduce::<V>(Term::Product, xs, w, out);
}

/// Batched squared Euclidean distances to `center`.
#[inline(always)]
pub(super) fn batch_squared_distances<V: Lanes>(xs: &[f64], center: &[f64], out: &mut [f64]) {
    batch_reduce::<V>(Term::SquaredDifference, xs, center, out);
}

/// Batched closest column, register-tiled like [`rank_k`]: four rows (one per
/// lane) against four columns per pass, so one gather of the rows' `k`-th
/// elements feeds four distances and four independent addition chains
/// overlap.  Each (row, column) sum still runs left to right and the
/// distances meet the running minimum in column order under the strict `<`
/// (NaN distances never win, ties keep the earliest column — the
/// `closest_column` contract), so the tiling is invisible in the result.  The
/// winning index rides in an `f64` lane, exact for any index below 2⁵³; the
/// winning distance (`+∞` for a row no column can win) goes to `distances`
/// when the caller wants it.
#[inline(always)]
pub(super) fn batch_closest_column<V: Lanes>(
    columns: &[Vec<f64>],
    xs: &[f64],
    width: usize,
    out: &mut [usize],
    mut distances: Option<&mut [f64]>,
) {
    assert_eq!(xs.len(), out.len() * width, "one output per row");
    assert!(
        columns.iter().all(|c| c.len() == width),
        "every column is one row wide"
    );
    assert!(
        distances.as_ref().is_none_or(|d| d.len() == out.len()),
        "one distance per row"
    );
    let tiled = columns.len() & !3;
    let (groups, full) = row_groups(xs, width, 4);
    for (g, (group, slots)) in groups.zip(out.chunks_exact_mut(4)).enumerate() {
        let mut rows = group.chunks_exact(width);
        let rows: [&[f64]; 4] = from_fn(|_| rows.next().expect("four rows"));
        let mut best = (V::splat(f64::INFINITY), V::splat(0.0));
        for first in (0..tiled).step_by(4) {
            best = closer_of::<V, 4>(best, rows, columns, first);
        }
        for first in tiled..columns.len() {
            best = closer_of::<V, 1>(best, rows, columns, first);
        }
        for (slot, idx) in slots.iter_mut().zip(best.1.to_array()) {
            *slot = idx as usize;
        }
        if let Some(distances) = distances.as_deref_mut() {
            best.0.store(distances, 4 * g);
        }
    }
    scalar::batch_closest_column(
        columns,
        &xs[full * width..],
        width,
        &mut out[full..],
        distances.map(|d| &mut d[full..]),
    );
}

/// One tile of [`batch_closest_column`]: the squared distances from each of
/// four rows to the `N` columns from `first` on, folded in column order into
/// `best`, the per-lane (distance, index) minimum so far.
#[inline(always)]
fn closer_of<V: Lanes, const N: usize>(
    best: (V, V),
    rows: [&[f64]; 4],
    columns: &[Vec<f64>],
    first: usize,
) -> (V, V) {
    // Every operand re-sliced to one common length: the element loop below
    // indexes without a bounds check.
    let width = rows[0].len();
    let rows: [&[f64]; 4] = from_fn(|l| &rows[l][..width]);
    let columns: [&[f64]; N] = from_fn(|j| &columns[first + j][..width]);
    let mut acc = [V::splat(0.0); N];
    for k in 0..width {
        let x = V::from_array([rows[0][k], rows[1][k], rows[2][k], rows[3][k]]);
        for (a, c) in acc.iter_mut().zip(&columns) {
            let d = x.sub(V::splat(c[k]));
            *a = a.add(d.mul(d));
        }
    }
    let (mut best_d, mut best_i) = best;
    for (j, &d) in acc.iter().enumerate() {
        best_i = d.select_lt(best_d, V::splat((first + j) as f64), best_i);
        best_d = d.select_lt(best_d, d, best_d);
    }
    (best_d, best_i)
}

/// `y += alpha * A * x`: eight matrix rows per pass, one per lane.
#[inline(always)]
pub(super) fn gemv_acc<V: Lanes>(alpha: f64, a: &DenseMatrix, x: &[f64], y: &mut [f64]) {
    assert_eq!((a.rows(), a.cols()), (y.len(), x.len()), "A is y × x");
    let av = V::splat(alpha);
    let (groups, full) = row_groups(a.as_slice(), a.cols(), 8);
    for (rows, ys) in groups.zip(y.chunks_exact_mut(8)) {
        // Adjacent rows: the matrices this runs on are cache-resident.
        let mut rows = rows.chunks_exact(x.len());
        let rows = from_fn(|_| from_fn(|_| rows.next().expect("eight rows")));
        let dots = reduce_rows::<V, 2>(Term::Product, rows, x);
        for (g, &dot) in dots.iter().enumerate() {
            V::load(ys, 4 * g).add(av.mul(dot)).store(ys, 4 * g);
        }
    }
    for (r, yr) in y.iter_mut().enumerate().skip(full) {
        let mut dot = [0.0];
        scalar::batch_dot(a.row_slice(r), x, &mut dot);
        *yr += alpha * dot[0];
    }
}

/// `out[c] ± Σ_k m[k·stride + c] · x[k]`: the columns `c` are independent
/// chains, so a register tile of 32 (on wide lanes), then 16, then 4
/// contiguous columns is seeded from `out`, swept down all of `x` and stored
/// once; the columns after the last whole lane are the last four columns'
/// lane, swept in one pass with the whole lane before it, and fewer than four
/// columns are the reference's.
#[inline(always)]
pub(super) fn column_sweep<V: Lanes>(
    out: &mut [f64],
    m: &[f64],
    stride: usize,
    x: &[f64],
    subtract: bool,
) {
    let cols = out.len();
    if cols < 4 || x.is_empty() {
        scalar::column_sweep(out, m, stride, x, subtract);
        return;
    }
    assert!(
        m.len() >= (x.len() - 1) * stride + cols,
        "m holds x.len() rows of out.len() columns"
    );
    // Past the last whole lane, the last four columns: one pass with the
    // whole lane before them, both seeded from `out` as found, so where they
    // overlap both store the same bits.
    let paired = if cols.is_multiple_of(4) {
        cols
    } else {
        cols - cols % 4 - 4
    };
    let mut c0 = 0;
    while V::WIDE_TILES && c0 + 32 <= paired {
        sweep_tile::<V, 8>(out, m, stride, x, c0, from_fn(|t| 4 * t), subtract);
        c0 += 32;
    }
    while c0 + 16 <= paired {
        sweep_tile::<V, 4>(out, m, stride, x, c0, from_fn(|t| 4 * t), subtract);
        c0 += 16;
    }
    while c0 + 4 <= paired {
        sweep_tile::<V, 1>(out, m, stride, x, c0, [0], subtract);
        c0 += 4;
    }
    if c0 < cols {
        sweep_tile::<V, 2>(out, m, stride, x, c0, [0, cols - 4 - c0], subtract);
    }
}

/// The lanes at columns `c0 + at[t]` of [`column_sweep`] (`at` ascending),
/// seeded from `out` before any is stored, swept down all of `x` together.
#[inline(always)]
fn sweep_tile<V: Lanes, const N: usize>(
    out: &mut [f64],
    m: &[f64],
    stride: usize,
    x: &[f64],
    c0: usize,
    at: [usize; N],
    subtract: bool,
) {
    let span = at[N - 1] + 4;
    let mut acc: [V; N] = from_fn(|t| V::load(out, c0 + at[t]));
    for (k, &xk) in x.iter().enumerate() {
        let row = &m[k * stride + c0..][..span];
        let xv = V::splat(xk);
        for (a, &at) in acc.iter_mut().zip(&at) {
            let term = V::load(row, at).mul(xv);
            *a = if subtract { a.sub(term) } else { a.add(term) };
        }
    }
    for (a, &at) in acc.iter().zip(&at) {
        a.store(out, c0 + at);
    }
}

/// `z[j][k] -= u[j]·e[k] + e[j]·u[k]` over the leading `m × m` block, one
/// contiguous row sweep per `j`; the columns after the last whole lane are
/// the last four columns' lane, and a block under four wide is the
/// reference's.
#[inline(always)]
pub(super) fn symmetric_rank2_update<V: Lanes>(z: &mut [f64], stride: usize, u: &[f64], e: &[f64]) {
    let m = u.len();
    assert_eq!(e.len(), m, "u and e are one block wide");
    if m == 0 {
        return;
    }
    assert!(
        stride >= m && z.len() >= (m - 1) * stride + m,
        "z holds an m × m block at this stride"
    );
    if m < 4 {
        scalar::symmetric_rank2_update(z, stride, u, e);
        return;
    }
    let full = m & !3;
    for (j, (&uj, &ej)) in u.iter().zip(e).enumerate() {
        let row = &mut z[j * stride..][..m];
        let (uj, ej) = (V::splat(uj), V::splat(ej));
        // The last four columns, from the entries as found: where they
        // overlap the whole lanes below, both write the same bits.
        let last = rank2_lanes(row, u, e, uj, ej, m - 4);
        for k in (0..full).step_by(4) {
            rank2_lanes(row, u, e, uj, ej, k).store(row, k);
        }
        last.store(row, m - 4);
    }
}

/// `row[k..k + 4] − (u_j·e[k..k + 4] + e_j·u[k..k + 4])`.
#[inline(always)]
fn rank2_lanes<V: Lanes>(row: &[f64], u: &[f64], e: &[f64], uj: V, ej: V, k: usize) -> V {
    let t = uj.mul(V::load(e, k)).add(ej.mul(V::load(u, k)));
    V::load(row, k).sub(t)
}

/// `L⁻¹` of the lower-triangular row-major `l`, four columns per pass: each
/// lane is one column's forward substitution.  A panel's 4 × 4 diagonal block
/// is the reference loop; below it lane `l` of a row starts its chain at
/// column `j0 + l` — its first `3 − l` terms are added in scalar before the
/// lanes advance together — and rows go four at a time, sharing each load of
/// the panel.  The columns after the last whole panel are the reference's.
#[inline(always)]
pub(super) fn lower_triangular_inverse<V: Lanes>(l: &[f64], n: usize, out: &mut [f64]) {
    assert_eq!(l.len(), n * n, "l is n × n");
    assert_eq!(out.len(), n * n, "out is n × n");
    let panels = n / 4;
    for j0 in (0..4 * panels).step_by(4) {
        scalar::lower_inverse_columns(l, n, out, j0..j0 + 4, j0 + 4);
        let mut i0 = j0 + 4;
        while i0 + 4 <= n {
            inverse_rows::<V, 4>(l, n, out, j0, i0);
            i0 += 4;
        }
        for i in i0..n {
            inverse_rows::<V, 1>(l, n, out, j0, i);
        }
    }
    scalar::lower_inverse_columns(l, n, out, 4 * panels..n, n);
}

/// Rows `i0..i0 + R` (all below the panel's diagonal block) of the panel of
/// columns `j0..j0 + 4`: the rows' chains advance together over `k < i0`,
/// then each row is divided by its pivot and its `k = i` term joins the rows
/// after it, in order.
#[inline(always)]
fn inverse_rows<V: Lanes, const R: usize>(
    l: &[f64],
    n: usize,
    out: &mut [f64],
    j0: usize,
    i0: usize,
) {
    let rows: [&[f64]; R] = from_fn(|r| &l[(i0 + r) * n..][..i0 + R]);
    let mut acc: [V; R] = from_fn(|r| {
        let mut head = [0.0; 4];
        for (lane, sum) in head.iter_mut().enumerate() {
            for k in j0 + lane..j0 + 3 {
                *sum -= rows[r][k] * out[k * n + j0 + lane];
            }
        }
        V::from_array(head)
    });
    for k in j0 + 3..i0 {
        let panel = V::load(out, k * n + j0);
        for (a, row) in acc.iter_mut().zip(&rows) {
            *a = a.sub(V::splat(row[k]).mul(panel));
        }
    }
    for r in 0..R {
        let i = i0 + r;
        let sums = acc[r].to_array();
        let pivot = rows[r][i];
        let solved = V::from_array(from_fn(|lane| sums[lane] / pivot));
        solved.store(out, i * n + j0);
        for later in r + 1..R {
            acc[later] = acc[later].sub(V::splat(rows[later][i]).mul(solved));
        }
    }
}

/// `out += A * B`: per output row a 16-wide register tile (then 4-wide, then
/// single elements) is held across the whole `k` loop, preserving the
/// reference's `a[i][k] == 0.0` skip per `(i, k)` pair.
#[inline(always)]
pub(super) fn gemm_acc<V: Lanes>(out: &mut DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) {
    assert_eq!(a.cols(), b.rows(), "A and B conform");
    assert_eq!((out.rows(), out.cols()), (a.rows(), b.cols()), "out is A·B");
    let (acols, bcols) = (a.cols(), b.cols());
    if acols == 0 || bcols == 0 {
        return;
    }
    let (ad, bd, od) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    for (arow, orow) in ad.chunks_exact(acols).zip(od.chunks_exact_mut(bcols)) {
        let mut j0 = 0;
        while j0 + 16 <= bcols {
            gemm_tile::<V, 4>(orow, arow, bd, j0);
            j0 += 16;
        }
        while j0 + 4 <= bcols {
            gemm_tile::<V, 1>(orow, arow, bd, j0);
            j0 += 4;
        }
        for (j, o) in orow.iter_mut().enumerate().skip(j0) {
            for (&aik, brow) in arow.iter().zip(bd.chunks_exact(bcols)) {
                if aik != 0.0 {
                    *o += aik * brow[j];
                }
            }
        }
    }
}

/// Columns `j0..j0 + 4·N` of one output row: `orow += arow · B`.
#[inline(always)]
fn gemm_tile<V: Lanes, const N: usize>(orow: &mut [f64], arow: &[f64], bd: &[f64], j0: usize) {
    let mut acc = [V::splat(0.0); N];
    for (t, a) in acc.iter_mut().enumerate() {
        *a = V::load(orow, j0 + 4 * t);
    }
    for (&aik, brow) in arow.iter().zip(bd.chunks_exact(orow.len())) {
        if aik == 0.0 {
            continue;
        }
        let akv = V::splat(aik);
        let b = &brow[j0..j0 + 4 * N];
        for (t, a) in acc.iter_mut().enumerate() {
            *a = a.add(akv.mul(V::load(b, 4 * t)));
        }
    }
    for (t, a) in acc.iter().enumerate() {
        a.store(orow, j0 + 4 * t);
    }
}
