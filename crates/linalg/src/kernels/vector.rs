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
//!   produces, merely re-batched.  A rank-k strip's 4×4 diagonal block is
//!   such a tile too: its lanes above the diagonal are computed and dropped
//!   by a masked store, so the upper triangle is left exactly as found.  The
//!   weighted update prescales each block's rows into `w·x_i` once — the
//!   reference's first rounding of `(w·x_i)·x_j` — and runs the unweighted
//!   tiles on them.
//! * Row reductions put one *row* in each lane ([`Lanes::from_array`]);
//!   within a lane the elements accumulate left-to-right exactly as the
//!   reference loop does.  Closest-column turns that around: the columns sit
//!   in the lanes (a `k`-major copy made once per call, lane `l` holding the
//!   `l`-th quarter of the columns) and two rows' elements are broadcast
//!   against them, every (row, column) sum still its own left-to-right
//!   chain; each lane's minimum runs over its quarter in column order and
//!   the quarters meet in lane order, both under the reference's strict `<`,
//!   which is the reference's fold.
//! * `Xᵀy` has no body of its own: it is [`column_sweep`] over the rows, the
//!   `y`s as multipliers.
//! * [`Lanes`] offers `mul` and `add` but no fused multiply-add, so the
//!   intermediate rounding of `a * b` cannot be skipped by accident.
//! * Rows left over after the last full lane group (or, for closest-column,
//!   the last four rows) are handed to the reference kernel itself on the
//!   tail sub-slices.  The row-sweep kernels
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
    assert_eq!((m.rows(), m.cols()), (width, width), "m is width × width");
    if width == 0 {
        return;
    }
    let md = m.as_mut_slice();
    for block in xs.chunks(ROW_BLOCK * width) {
        rank_k_block::<V>(md, block, block, width);
    }
}

/// `m += Σ_r w_r · x_r x_rᵀ` (lower triangle): the unweighted tiles, their
/// `i` operand prescaled once per block into `w_r · x_r[i]`, the reference's
/// first rounding of `(w · x_i) · x_j`.
#[inline(always)]
pub(super) fn weighted_rank_k_update_lower<V: Lanes>(
    m: &mut DenseMatrix,
    xs: &[f64],
    weights: &[f64],
    width: usize,
) {
    assert_eq!(xs.len(), weights.len() * width, "one weight per row");
    assert_eq!((m.rows(), m.cols()), (width, width), "m is width × width");
    if width == 0 {
        return;
    }
    let md = m.as_mut_slice();
    let mut scaled = vec![0.0; weights.len().min(ROW_BLOCK) * width];
    for (block, block_weights) in xs.chunks(ROW_BLOCK * width).zip(weights.chunks(ROW_BLOCK)) {
        for (r, &w) in block_weights.iter().enumerate() {
            let row = r * width..(r + 1) * width;
            for (s, &x) in scaled[row.clone()].iter_mut().zip(&block[row]) {
                *s = w * x;
            }
        }
        rank_k_block::<V>(md, &scaled[..block.len()], block, width);
    }
}

/// `m[i][j] += Σ_r left_r[i] · right_r[j]` (`j ≤ i`) over one cache-resident
/// `ROW_BLOCK`: register tiles up to and including each 4-row strip's
/// diagonal block; a last strip of fewer than four rows is [`rank_k_edge`]'s.
#[inline(always)]
fn rank_k_block<V: Lanes>(md: &mut [f64], left: &[f64], right: &[f64], width: usize) {
    let mut i0 = 0;
    while i0 + 4 <= width {
        let mut j0 = 0;
        while V::WIDE_TILES && j0 + 8 <= i0 + 4 {
            rank_k_tile::<V, 2>(md, left, right, width, i0, j0);
            j0 += 8;
        }
        while j0 <= i0 {
            rank_k_tile::<V, 1>(md, left, right, width, i0, j0);
            j0 += 4;
        }
        i0 += 4;
    }
    rank_k_edge(md, left, right, width, i0..width);
}

/// A 4×(4·NJ) accumulator tile at (`i0`, `j0`): seeded from `md`, updated
/// across every row of the block, stored back once — a lane group reaching
/// past the diagonal only up to it, so the upper triangle is left as found.
#[inline(always)]
fn rank_k_tile<V: Lanes, const NJ: usize>(
    md: &mut [f64],
    left: &[f64],
    right: &[f64],
    width: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[V::splat(0.0); NJ]; 4];
    for (ii, row_acc) in acc.iter_mut().enumerate() {
        for (jj, a) in row_acc.iter_mut().enumerate() {
            *a = V::load(md, (i0 + ii) * width + j0 + 4 * jj);
        }
    }
    for (l, r) in left.chunks_exact(width).zip(right.chunks_exact(width)) {
        // One bounds check per operand per row; the loads below index
        // sub-slices of known length.
        let (xi, xj) = (&l[i0..i0 + 4], &r[j0..j0 + 4 * NJ]);
        let mut xjv = [V::splat(0.0); NJ];
        for (jj, v) in xjv.iter_mut().enumerate() {
            *v = V::load(xj, 4 * jj);
        }
        for (row_acc, &xi) in acc.iter_mut().zip(xi) {
            let xiv = V::splat(xi);
            for (a, &v) in row_acc.iter_mut().zip(&xjv) {
                *a = a.add(xiv.mul(v));
            }
        }
    }
    for (ii, row_acc) in acc.iter().enumerate() {
        let i = i0 + ii;
        for (jj, a) in row_acc.iter().enumerate() {
            let j = j0 + 4 * jj;
            if j + 3 <= i {
                a.store(md, i * width + j);
            } else {
                md[i * width + j..=i * width + i].copy_from_slice(&a.to_array()[..=i - j]);
            }
        }
    }
}

/// A last strip of fewer than four rows, `rows`, columns `0..=i`:
/// element-major with the row loop innermost, so each element's additions
/// still happen in row order.
fn rank_k_edge(
    md: &mut [f64],
    left: &[f64],
    right: &[f64],
    width: usize,
    rows: std::ops::Range<usize>,
) {
    for i in rows {
        for j in 0..=i {
            let mut acc = md[i * width + j];
            for (l, r) in left.chunks_exact(width).zip(right.chunks_exact(width)) {
                acc += l[i] * r[j];
            }
            md[i * width + j] = acc;
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

/// Batched closest column with the columns in the lanes: copied once per call
/// into a `k`-major scratch, lane `l` holding the `l`-th quarter of them
/// (padded with NaN, which never wins), they meet two rows' broadcast `k`-th
/// elements 16 at a time (4 without [`Lanes::WIDE_TILES`]), every (row,
/// column) sum its own chain, left to right.  Each lane's (distance, index)
/// minimum runs over its quarter in column order and [`quarters_meet`] meets
/// the quarters in lane order, both under the reference's strict `<` — its
/// fold, so NaN never wins and ties keep the earliest column.  The winning
/// distance (`+∞` for a row nothing can win) goes to `distances` if asked
/// for; the rows after the last four are the reference's.
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
    // Without columns or coordinates every row is the reference's (index 0,
    // distance `+∞` or `0.0`): there is nothing to put in the lanes.
    let quads = if columns.is_empty() || width == 0 {
        0
    } else {
        out.len() / 4
    };
    if quads > 0 {
        // Lane `l` of the `j`-th lane group holds column `l · quarter + j`.
        let quarter = columns.len().div_ceil(4);
        let mut lanes = vec![f64::NAN; width * 4 * quarter];
        for (c, column) in columns.iter().enumerate() {
            let at = 4 * (c % quarter) + c / quarter;
            for (k, &v) in column.iter().enumerate() {
                lanes[4 * k * quarter + at] = v;
            }
        }
        let q = quarter as f64;
        let lane_index = V::from_array([0.0, q, 2.0 * q, 3.0 * q]);
        for (g, slots) in out[..4 * quads].chunks_exact_mut(4).enumerate() {
            let mut best = [[(V::splat(f64::INFINITY), V::splat(0.0)); 2]; 2];
            for (pair, best) in best.iter_mut().enumerate() {
                let first = 4 * g + 2 * pair;
                let rows: [&[f64]; 2] = from_fn(|r| &xs[(first + r) * width..][..width]);
                let mut j0 = 0;
                while V::WIDE_TILES && j0 + 4 <= quarter {
                    closest_in_tile::<V, 4>(best, rows, &lanes, quarter, j0, lane_index);
                    j0 += 4;
                }
                while j0 < quarter {
                    closest_in_tile::<V, 1>(best, rows, &lanes, quarter, j0, lane_index);
                    j0 += 1;
                }
            }
            let (d, i) = quarters_meet(best.as_flattened());
            // Indices ride in `f64` lanes, exact below 2⁵³.
            for (slot, i) in slots.iter_mut().zip(i.to_array()) {
                *slot = i as usize;
            }
            if let Some(distances) = distances.as_deref_mut() {
                d.store(distances, 4 * g);
            }
        }
    }
    let done = 4 * quads;
    scalar::batch_closest_column(
        columns,
        &xs[done * width..],
        width,
        &mut out[done..],
        distances.map(|d| &mut d[done..]),
    );
}

/// One tile of [`batch_closest_column`]: two rows' squared distances to the
/// columns of lane groups `j0 .. j0 + T`, folded lane by lane in column order
/// into `best`, each row's per-lane (distance, index) minimum so far.
#[inline(always)]
fn closest_in_tile<V: Lanes, const T: usize>(
    best: &mut [(V, V); 2],
    rows: [&[f64]; 2],
    lanes: &[f64],
    quarter: usize,
    j0: usize,
    lane_index: V,
) {
    let mut acc = [[V::splat(0.0); T]; 2];
    for (k, (&x0, &x1)) in rows[0].iter().zip(rows[1]).enumerate() {
        let at = &lanes[4 * (k * quarter + j0)..][..4 * T];
        let xv = [V::splat(x0), V::splat(x1)];
        for t in 0..T {
            let c = V::load(at, 4 * t);
            for (row_acc, x) in acc.iter_mut().zip(xv) {
                let d = x.sub(c);
                row_acc[t] = row_acc[t].add(d.mul(d));
            }
        }
    }
    for t in 0..T {
        let index = lane_index.add(V::splat((j0 + t) as f64));
        for ((best_d, best_i), row_acc) in best.iter_mut().zip(&acc) {
            let d = row_acc[t];
            *best_i = d.select_lt(*best_d, index, *best_i);
            *best_d = d.select_lt(*best_d, d, *best_d);
        }
    }
}

/// Four rows' per-lane minima, transposed so that each lane holds one row,
/// met in lane order — quarter order — under the strict `<`: each row's
/// winner as the reference's fold finds it.
#[inline(always)]
fn quarters_meet<V: Lanes>(best: &[(V, V)]) -> (V, V) {
    let d: [[f64; 4]; 4] = from_fn(|r| best[r].0.to_array());
    let i: [[f64; 4]; 4] = from_fn(|r| best[r].1.to_array());
    let (mut best_d, mut best_i) = (V::splat(f64::INFINITY), V::splat(0.0));
    for l in 0..4 {
        let lane_d = V::from_array(from_fn(|r| d[r][l]));
        let lane_i = V::from_array(from_fn(|r| i[r][l]));
        best_i = lane_d.select_lt(best_d, lane_i, best_i);
        best_d = lane_d.select_lt(best_d, lane_d, best_d);
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
