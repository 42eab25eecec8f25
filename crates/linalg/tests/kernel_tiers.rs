//! Bit-identity tests across the batched-kernel dispatch tiers.
//!
//! Every batched kernel has a `scalar` reference and one vector body that
//! the `unrolled` (`[f64; 4]` lanes, portable) and `simd` (`__m256d` lanes,
//! AVX2) tiers instantiate, and the engine's correctness contracts assume
//! all three are interchangeable to the bit.  These tests sweep widths that
//! are *not* multiples of the lane count (tails), row counts that end
//! exactly on a lane group and just past one, degenerate shapes (width 0
//! and 1, zero rows), and inputs salted with NaN, ±0.0 and ±∞, asserting
//! exact `to_bits` equality with the reference for every kernel on both
//! lane types.  The SIMD tier is exercised only when the host supports it
//! ([`simd::available`]); the scalar/unrolled comparison runs everywhere.
//! The `*_rejects_a_short_input` tests pin the other half of the contract:
//! a mis-shaped call panics instead of reading out of bounds, in release
//! builds too (CI runs this file with `--release`).
//!
//! One deliberate subtlety: the NaN used for salting is the *hardware
//! generated* quiet NaN (`0.0 * ∞`, `0xFFF8…` on x86) rather than the
//! `f64::NAN` literal (`0x7FF8…`).  When an addition has **two distinct**
//! NaN operands — say a propagated input NaN meeting an indefinite NaN
//! generated by `∞ - ∞` later in the chain — x86 returns whichever NaN is
//! in the first source operand, and LLVM freely commutes `fadd`/`fmul`
//! operands during instruction selection.  Empirically the *same scalar
//! source loop* yields `0xFFF8…` or `0x7FF8…` depending on surrounding
//! codegen, so NaN payload/sign is outside the bit-identity contract (see
//! the `kernels` module docs).  Salting with the generated NaN makes every
//! NaN in the test bit-identical, so commutation is unobservable and the
//! assertions can stay exact — including *where* NaNs appear.

use madlib_linalg::array_ops::array_squared_distance;
use madlib_linalg::kernels::{self, scalar, simd, unrolled};
use madlib_linalg::DenseMatrix;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The platform's hardware-generated quiet NaN (`0xFFF8…` on x86, where
/// invalid operations set the sign bit; `0x7FF8…` on aarch64).  Computed
/// through [`black_box`] so LLVM cannot constant-fold it into its own
/// (positive) NaN choice.
fn generated_nan() -> f64 {
    black_box(0.0f64) * black_box(f64::INFINITY)
}

/// Widths straddling the 4-wide SIMD lanes, the 64-wide tiles and the
/// 4-row strips: 0 and 1 are degenerate, 2/3/5/7 are lane tails, 65/70
/// are tile tails.
const WIDTHS: [usize; 12] = [0, 1, 2, 3, 4, 5, 7, 8, 17, 40, 65, 70];

/// Row counts straddling the 64-row blocks and the 4- and 8-row lane groups
/// of the reduction kernels; 4, 8, 16 and 64 end exactly on a group, so the
/// last lane of the last group reads the last element of the buffer.
const ROWS: [usize; 11] = [0, 1, 2, 3, 4, 5, 8, 9, 16, 64, 130];

/// Deterministic pseudo-random values in [-2, 2), salted with the IEEE
/// special values every few slots so NaN propagation, signed zeros and
/// infinities flow through every tier's lanes and tails.
fn salted_data(n: usize, seed: u64) -> Vec<f64> {
    let specials = [generated_nan(), 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    let mut state = seed.max(1);
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if i % 23 == 7 {
                specials[(state % specials.len() as u64) as usize]
            } else {
                (state % 1000) as f64 / 250.0 - 2.0
            }
        })
        .collect()
}

/// Finite deterministic values (for weights and inputs where specials
/// would blot out the whole result with NaN anyway).
fn finite_data(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.max(1);
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 250.0 - 2.0
        })
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: element {i} differs ({x:?} vs {y:?})"
        );
    }
}

/// Runs `f` per tier against a fresh copy of `seed_out`, comparing each
/// tier's output matrix to the scalar tier's bit for bit.
fn check_matrix_kernel(context: &str, seed_out: &DenseMatrix, f: impl Fn(&mut DenseMatrix, u8)) {
    let mut reference = seed_out.clone();
    f(&mut reference, 0);
    let mut portable = seed_out.clone();
    f(&mut portable, 1);
    assert_bits_eq(
        reference.as_slice(),
        portable.as_slice(),
        &format!("{context} (unrolled)"),
    );
    if simd::available() {
        let mut vectored = seed_out.clone();
        f(&mut vectored, 2);
        assert_bits_eq(
            reference.as_slice(),
            vectored.as_slice(),
            &format!("{context} (simd)"),
        );
    }
}

#[test]
fn rank_k_update_lower_tiers_agree() {
    for width in WIDTHS {
        for rows in ROWS {
            let xs = salted_data(rows * width, (rows * 31 + width) as u64);
            // Seed the accumulator with non-zero values: tiles load it.
            let mut seed = DenseMatrix::zeros(width, width);
            for (i, v) in finite_data(width * width, 5).iter().enumerate() {
                seed.as_mut_slice()[i] = *v;
            }
            let context = format!("rank_k rows={rows} width={width}");
            check_matrix_kernel(&context, &seed, |m, tier| match tier {
                0 => scalar::rank_k_update_lower(m, &xs, width),
                1 => unrolled::rank_k_update_lower(m, &xs, width),
                _ => simd::rank_k_update_lower(m, &xs, width),
            });
        }
    }
}

#[test]
fn weighted_rank_k_update_lower_tiers_agree() {
    // Finite weights of both signs, then — one per call, at the middle row —
    // a special weight the prescaled `w · x_i` must carry: the generated NaN,
    // ±∞ and `-0.0`.  The accumulator starts at `-0.0`, so the sign of a
    // zero sum shows.
    let specials = [
        None,
        Some(generated_nan()),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        Some(-0.0),
    ];
    for width in WIDTHS {
        for rows in ROWS {
            let xs = salted_data(rows * width, (rows * 7 + width) as u64);
            let mut seed = DenseMatrix::zeros(width, width);
            seed.as_mut_slice().fill(-0.0);
            for special in specials {
                let mut weights = finite_data(rows, 99);
                if let (Some(w), true) = (special, rows > 0) {
                    weights[rows / 2] = w;
                }
                let context =
                    format!("weighted_rank_k weight={special:?} rows={rows} width={width}");
                check_matrix_kernel(&context, &seed, |m, tier| match tier {
                    0 => scalar::weighted_rank_k_update_lower(m, &xs, &weights, width),
                    1 => unrolled::weighted_rank_k_update_lower(m, &xs, &weights, width),
                    _ => simd::weighted_rank_k_update_lower(m, &xs, &weights, width),
                });
            }
        }
    }
}

/// The diagonal blocks are computed whole and stored only up to the
/// diagonal: an upper triangle of NaN markers (a payload no kernel produces)
/// comes back bit for bit as found from the reference, and so — being equal
/// to it bit for bit — from both lane types, at every width whose strips end
/// on a diagonal block or a short last strip.
#[test]
fn rank_k_updates_leave_the_upper_triangle_as_found() {
    let marker = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    for width in 1..=13 {
        for rows in [1, 2, 5, 64, 130] {
            let xs = salted_data(rows * width, (rows * 17 + width) as u64);
            let weights = salted_data(rows, (rows + 3) as u64);
            let mut seed = DenseMatrix::zeros(width, width);
            for (at, v) in finite_data(width * width, 9).into_iter().enumerate() {
                seed.as_mut_slice()[at] = if at % width > at / width { marker } else { v };
            }
            for weighted in [false, true] {
                let context =
                    format!("upper triangle rows={rows} width={width} weighted={weighted}");
                let run = |m: &mut DenseMatrix, tier: u8| match (weighted, tier) {
                    (false, 0) => scalar::rank_k_update_lower(m, &xs, width),
                    (false, 1) => unrolled::rank_k_update_lower(m, &xs, width),
                    (false, _) => simd::rank_k_update_lower(m, &xs, width),
                    (true, 0) => scalar::weighted_rank_k_update_lower(m, &xs, &weights, width),
                    (true, 1) => unrolled::weighted_rank_k_update_lower(m, &xs, &weights, width),
                    (true, _) => simd::weighted_rank_k_update_lower(m, &xs, &weights, width),
                };
                let mut reference = seed.clone();
                run(&mut reference, 0);
                for i in 0..width {
                    for j in i + 1..width {
                        let found = reference.get(i, j).to_bits();
                        assert_eq!(found, marker.to_bits(), "{context}: ({i}, {j}) was written");
                    }
                }
                check_matrix_kernel(&context, &seed, run);
            }
        }
    }
}

/// `Xᵀy` has one body: the dispatcher is a shape-checked [`column_sweep`]
/// of the rows against `ys`, held here — and that sweep on both lane types —
/// to the reference row loop.
#[test]
fn xty_update_tiers_agree() {
    for width in WIDTHS {
        for rows in ROWS {
            let xs = salted_data(rows * width, (rows + width * 13) as u64);
            let ys = salted_data(rows, 3);
            let seed = finite_data(width, 17);
            let mut reference = seed.clone();
            scalar::xty_update(&mut reference, &xs, &ys, width);
            let context = format!("xty rows={rows} width={width}");
            let mut dispatched = seed.clone();
            kernels::xty_update(&mut dispatched, &xs, &ys, width);
            assert_bits_eq(&reference, &dispatched, &format!("{context} (dispatch)"));
            let mut portable = seed.clone();
            unrolled::column_sweep(&mut portable, &xs, width, &ys, false);
            assert_bits_eq(&reference, &portable, &format!("{context} (unrolled)"));
            if simd::available() {
                let mut vectored = seed.clone();
                simd::column_sweep(&mut vectored, &xs, width, &ys, false);
                assert_bits_eq(&reference, &vectored, &format!("{context} (simd)"));
            }
        }
    }
}

#[test]
fn batch_dot_tiers_agree() {
    for width in WIDTHS {
        for rows in ROWS {
            let xs = salted_data(rows * width, (rows * 3 + width) as u64);
            let w = salted_data(width, 41);
            let context = format!("batch_dot rows={rows} width={width}");
            let mut reference = vec![0.5; rows];
            scalar::batch_dot(&xs, &w, &mut reference);
            let mut portable = vec![0.5; rows];
            unrolled::batch_dot(&xs, &w, &mut portable);
            assert_bits_eq(&reference, &portable, &format!("{context} (unrolled)"));
            if simd::available() {
                let mut vectored = vec![0.5; rows];
                simd::batch_dot(&xs, &w, &mut vectored);
                assert_bits_eq(&reference, &vectored, &format!("{context} (simd)"));
            }
        }
    }
}

#[test]
fn batch_squared_distances_tiers_agree() {
    for width in WIDTHS {
        for rows in ROWS {
            let xs = salted_data(rows * width, (rows * 11 + width) as u64);
            let center = salted_data(width, 53);
            let context = format!("batch_distances rows={rows} width={width}");
            let mut reference = vec![0.5; rows];
            scalar::batch_squared_distances(&xs, &center, &mut reference);
            let mut portable = vec![0.5; rows];
            unrolled::batch_squared_distances(&xs, &center, &mut portable);
            assert_bits_eq(&reference, &portable, &format!("{context} (unrolled)"));
            if simd::available() {
                let mut vectored = vec![0.5; rows];
                simd::batch_squared_distances(&xs, &center, &mut vectored);
                assert_bits_eq(&reference, &vectored, &format!("{context} (simd)"));
            }
        }
    }
}

/// The row reductions read a call's rows as eight runs of `rows / 8`, one per
/// lane, and leave the `rows % 8` rows after the runs to the reference: every
/// row must still land in its own slot with the reference's bits.  Row counts
/// with no run at all, runs of one to two rows, and a chunk's worth either
/// side of a multiple of eight; a special value on both sides of every run
/// boundary and in every remainder row, each at a different element; distinct
/// rows, and an output pre-filled with a NaN no kernel produces, so a slot
/// left unwritten or given another row's sum cannot pass.
#[test]
fn row_reductions_write_every_row_to_its_slot() {
    type Reduction = fn(&[f64], &[f64], &mut [f64]);
    let kernels: [(&str, [Reduction; 3]); 2] = [
        (
            "batch_dot",
            [scalar::batch_dot, unrolled::batch_dot, simd::batch_dot],
        ),
        (
            "batch_squared_distances",
            [
                scalar::batch_squared_distances,
                unrolled::batch_squared_distances,
                simd::batch_squared_distances,
            ],
        ),
    ];
    let specials = [generated_nan(), 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];
    let unwritten = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    let row_counts = (0..=17).chain([63, 64, 65, 1023, 1024, 1025]);
    for rows in row_counts {
        for width in [0, 1, 3, 8, 64, 100] {
            let mut xs = finite_data(rows * width, (rows * 131 + width) as u64);
            let run = rows / 8;
            let around_boundaries = (1..=8).flat_map(|s| [s * run - run.min(1), s * run]);
            for row in around_boundaries.chain(8 * run..rows) {
                if row < rows && width > 0 {
                    xs[row * width + row % width] = specials[row % specials.len()];
                }
            }
            let other = finite_data(width, 41);
            for (name, [reference, portable, vectored]) in kernels {
                let context = format!("{name} rows={rows} width={width}");
                let mut expected = vec![unwritten; rows];
                reference(&xs, &other, &mut expected);
                assert!(
                    expected.iter().all(|v| v.to_bits() != unwritten.to_bits()),
                    "{context}: the reference left a slot unwritten"
                );
                let mut out = vec![unwritten; rows];
                portable(&xs, &other, &mut out);
                assert_bits_eq(&expected, &out, &format!("{context} (unrolled)"));
                if simd::available() {
                    let mut out = vec![unwritten; rows];
                    vectored(&xs, &other, &mut out);
                    assert_bits_eq(&expected, &out, &format!("{context} (simd)"));
                }
            }
        }
    }
}

/// The vector body holds the columns in the lanes — a quarter of them per
/// lane, 16 per tile on `simd`, 4 on `unrolled`, the last quarter padded —
/// and takes rows two per pass and four per reduction, the one to three
/// rows after the last four (1–3, 5–7, 9 and 33 rows) going to the
/// reference.  Column
/// counts 0–40 give quarters of 1–10 columns, so every lane and tile
/// boundary moves across the NaN-salted and duplicated columns.  Row blocks
/// play no part here, so the row counts and widths stop short of the larger
/// ones the other kernels need.
#[test]
fn batch_closest_column_tiers_agree() {
    // Rows won by a column that a later column duplicates, where the two sit
    // in different lanes (quarters), or in one lane on both sides of the
    // `simd` tile boundary (four lane groups): the ties the earlier column
    // must win.
    let (mut ties_across_lanes, mut ties_across_tiles) = (0, 0);
    for width in [0, 1, 2, 3, 4, 5, 7, 8, 17, 40] {
        for rows in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 33] {
            for num_columns in 0..=40 {
                for salt_points in [false, true] {
                    // Finite points and centers, then salt one center on each
                    // side of the lane and tile boundaries with a NaN so the
                    // NaN-never-wins tie-break is exercised without every
                    // distance collapsing to NaN.
                    let mut xs = finite_data(rows * width, (rows + width + num_columns) as u64);
                    let mut columns: Vec<Vec<f64>> = (0..num_columns)
                        .map(|c| finite_data(width, 1000 + c as u64))
                        .collect();
                    for salted in [1, 5, 14, 17] {
                        if width > 0 && num_columns > salted {
                            columns[salted][width / 2] = f64::NAN;
                        }
                    }
                    // Duplicate columns to exercise first-minimum
                    // tie-breaking: 2 = 0, 4 = 3, and the first column of the
                    // second quarter = the last of the first (from quarters of
                    // six columns on, where it collides with no other pair).
                    let quarter = num_columns.div_ceil(4);
                    let mut duplicates = vec![(2, 0), (4, 3)];
                    if quarter >= 6 {
                        duplicates.push((quarter, quarter - 1));
                    }
                    duplicates.retain(|&(copy, _)| copy < num_columns);
                    for &(copy, original) in &duplicates {
                        columns[copy] = columns[original].clone();
                    }
                    // Points no column can win: a NaN coordinate makes every
                    // distance NaN, an infinite one makes every distance ∞
                    // (and `∞ < ∞` is false), so both keep index 0.
                    let mut unwinnable = Vec::new();
                    if salt_points && width > 0 {
                        for (row, salt) in [
                            (0, generated_nan()),
                            (rows / 2, f64::INFINITY),
                            (rows.saturating_sub(1), f64::NEG_INFINITY),
                        ] {
                            if row < rows && !unwinnable.contains(&row) {
                                xs[row * width + width / 2] = salt;
                                unwinnable.push(row);
                            }
                        }
                    }
                    let context = format!(
                        "batch_closest rows={rows} width={width} columns={num_columns} \
                         salted={salt_points}"
                    );
                    let mut reference = vec![usize::MAX; rows];
                    let mut reference_d = vec![0.5; rows];
                    scalar::batch_closest_column(
                        &columns,
                        &xs,
                        width,
                        &mut reference,
                        Some(&mut reference_d),
                    );
                    for &row in &unwinnable {
                        assert_eq!(reference[row], 0, "{context}: row {row} has a winner");
                    }
                    if num_columns == 0 {
                        assert!(reference.iter().all(|&i| i == 0), "{context}");
                    }
                    // The distance output is the winner's squared distance as
                    // the per-row formulation computes it, `+∞` where nothing
                    // won.  (At width 0 that formulation is an empty
                    // `iter().sum()`, whose sign of zero is the toolchain's
                    // choice; the kernels give `batch_squared_distances`' `0.0`.)
                    for (row, (&winner, d)) in reference.iter().zip(&reference_d).enumerate() {
                        let expected = match columns.get(winner) {
                            Some(_) if width == 0 => 0.0,
                            Some(column) => {
                                let point = &xs[row * width..(row + 1) * width];
                                let d = array_squared_distance(column, point).unwrap();
                                if d < f64::INFINITY {
                                    d
                                } else {
                                    f64::INFINITY
                                }
                            }
                            None => f64::INFINITY,
                        };
                        assert_eq!(
                            d.to_bits(),
                            expected.to_bits(),
                            "{context}: row {row} distance {d:?} vs {expected:?}"
                        );
                        if unwinnable.contains(&row) {
                            assert_eq!(*d, f64::INFINITY, "{context}: row {row}");
                        }
                    }
                    for &(copy, original) in &duplicates {
                        assert!(
                            reference.iter().all(|&i| i != copy),
                            "{context}: {copy} beat {original}"
                        );
                        let won = reference.iter().filter(|&&i| i == original).count();
                        if copy / quarter != original / quarter {
                            ties_across_lanes += won;
                        } else if (copy % quarter) / 4 != (original % quarter) / 4 {
                            ties_across_tiles += won;
                        }
                    }
                    // Both lane types, with and without the distance output.
                    for tier in [1, 2] {
                        if tier == 2 && !simd::available() {
                            continue;
                        }
                        for with_distances in [false, true] {
                            let mut assigned = vec![usize::MAX; rows];
                            let mut assigned_d = vec![0.5; rows];
                            let distances = with_distances.then_some(&mut assigned_d[..]);
                            match tier {
                                1 => unrolled::batch_closest_column(
                                    &columns,
                                    &xs,
                                    width,
                                    &mut assigned,
                                    distances,
                                ),
                                _ => simd::batch_closest_column(
                                    &columns,
                                    &xs,
                                    width,
                                    &mut assigned,
                                    distances,
                                ),
                            }
                            let context = format!("{context} tier={tier}");
                            assert_eq!(reference, assigned, "{context}");
                            if with_distances {
                                assert_bits_eq(&reference_d, &assigned_d, &context);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(ties_across_lanes > 0, "no row tied across a lane boundary");
    assert!(ties_across_tiles > 0, "no row tied across a tile boundary");
}

#[test]
fn gemv_acc_tiers_agree() {
    for rows in [0usize, 1, 3, 5, 9, 17, 64] {
        for cols in WIDTHS {
            let a = DenseMatrix::from_row_major(rows, cols, salted_data(rows * cols, 7)).unwrap();
            let x = salted_data(cols, 29);
            let seed = finite_data(rows, 61);
            for alpha in [1.0, -0.5, 0.0] {
                let context = format!("gemv rows={rows} cols={cols} alpha={alpha}");
                let mut reference = seed.clone();
                scalar::gemv_acc(alpha, &a, &x, &mut reference);
                let mut portable = seed.clone();
                unrolled::gemv_acc(alpha, &a, &x, &mut portable);
                assert_bits_eq(&reference, &portable, &format!("{context} (unrolled)"));
                if simd::available() {
                    let mut vectored = seed.clone();
                    simd::gemv_acc(alpha, &a, &x, &mut vectored);
                    assert_bits_eq(&reference, &vectored, &format!("{context} (simd)"));
                }
            }
        }
    }
}

#[test]
fn gemm_acc_tiers_agree() {
    // (m, k, n) shapes straddling the 16-wide j tile and its 4-wide and
    // scalar tails.
    for (m, k, n) in [
        (0, 0, 0),
        (1, 1, 1),
        (3, 5, 2),
        (5, 4, 9),
        (8, 16, 4),
        (17, 9, 33),
        (4, 7, 70),
    ] {
        // `a` gets explicit zeros so the historical `a[i][k] == 0.0` skip
        // path is hit, and `b` carries the specials the skip makes
        // observable (0.0 * ∞ = NaN only when *not* skipped).
        let mut a_data = finite_data(m * k, 83);
        for slot in a_data.iter_mut().step_by(3) {
            *slot = 0.0;
        }
        let a = DenseMatrix::from_row_major(m, k, a_data).unwrap();
        let b = DenseMatrix::from_row_major(k, n, salted_data(k * n, 19)).unwrap();
        let mut seed = DenseMatrix::zeros(m, n);
        for (i, v) in finite_data(m * n, 37).iter().enumerate() {
            seed.as_mut_slice()[i] = *v;
        }
        let context = format!("gemm m={m} k={k} n={n}");
        check_matrix_kernel(&context, &seed, |out, tier| match tier {
            0 => scalar::gemm_acc(out, &a, &b),
            1 => unrolled::gemm_acc(out, &a, &b),
            _ => simd::gemm_acc(out, &a, &b),
        });
    }
}

/// Asserts that `call(tier)` (0 = scalar, 1 = unrolled, 2 = simd) panics on
/// every tier that promises to reject a mis-shaped call in this build.  The
/// `checked` tiers run the vector body, which `assert!`s its shapes, so they
/// are held to it in every profile (SIMD only where the host has it); the
/// reference, and a tier that re-exports it, check with `debug_assert!` and
/// are safe Rust, so they are held to it in debug builds only.  Each tier is
/// caught on its own — a `#[should_panic]` test would pass as soon as the
/// first one panicked and say nothing about the others.
fn assert_every_tier_rejects(checked: &[u8], call: impl Fn(u8)) {
    for tier in 0..3 {
        let held = if checked.contains(&tier) {
            tier != 2 || simd::available()
        } else {
            cfg!(debug_assertions)
        };
        if held {
            let outcome = catch_unwind(AssertUnwindSafe(|| call(tier)));
            assert!(outcome.is_err(), "tier {tier} accepted a mis-shaped call");
        }
    }
}

#[test]
fn rank_k_update_lower_rejects_a_short_input() {
    // One and a half rows of width 4.
    assert_every_tier_rejects(&[1, 2], |tier| {
        let m = &mut DenseMatrix::zeros(4, 4);
        match tier {
            0 => scalar::rank_k_update_lower(m, &[1.0; 6], 4),
            1 => unrolled::rank_k_update_lower(m, &[1.0; 6], 4),
            _ => simd::rank_k_update_lower(m, &[1.0; 6], 4),
        }
    });
}

#[test]
fn weighted_rank_k_update_lower_rejects_a_short_input() {
    // Eight weights, one row.
    assert_every_tier_rejects(&[1, 2], |tier| {
        let m = &mut DenseMatrix::zeros(4, 4);
        match tier {
            0 => scalar::weighted_rank_k_update_lower(m, &[1.0; 4], &[1.0; 8], 4),
            1 => unrolled::weighted_rank_k_update_lower(m, &[1.0; 4], &[1.0; 8], 4),
            _ => simd::weighted_rank_k_update_lower(m, &[1.0; 4], &[1.0; 8], 4),
        }
    });
}

#[test]
fn xty_update_rejects_a_short_input() {
    // The dispatcher checks both shapes before any tier runs, in every build
    // profile: one row of width 4 against eight `y`s, and an `acc` a column
    // short.  The reference loop checks with `debug_assert!`.
    for (xs, acc_len) in [(&[1.0][..], 4), (&[1.0; 32][..], 3)] {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            kernels::xty_update(&mut vec![0.0; acc_len], xs, &[1.0; 8], 4)
        }));
        assert!(outcome.is_err(), "accepted xs={} acc={acc_len}", xs.len());
    }
    if cfg!(debug_assertions) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scalar::xty_update(&mut [0.0; 4], &[1.0], &[1.0; 8], 4)
        }));
        assert!(outcome.is_err(), "the reference accepted a short input");
    }
}

#[test]
fn batch_dot_rejects_a_short_input() {
    assert_every_tier_rejects(&[1, 2], |tier| match tier {
        0 => scalar::batch_dot(&[1.0], &[1.0; 4], &mut [0.0; 8]),
        1 => unrolled::batch_dot(&[1.0], &[1.0; 4], &mut [0.0; 8]),
        _ => simd::batch_dot(&[1.0], &[1.0; 4], &mut [0.0; 8]),
    });
    // Seventeen rows, sixteen outputs: the eight runs of two are all there.
    assert_every_tier_rejects(&[1, 2], |tier| match tier {
        0 => scalar::batch_dot(&[1.0; 68], &[1.0; 4], &mut [0.0; 16]),
        1 => unrolled::batch_dot(&[1.0; 68], &[1.0; 4], &mut [0.0; 16]),
        _ => simd::batch_dot(&[1.0; 68], &[1.0; 4], &mut [0.0; 16]),
    });
}

#[test]
fn batch_squared_distances_rejects_a_short_input() {
    assert_every_tier_rejects(&[1, 2], |tier| match tier {
        0 => scalar::batch_squared_distances(&[1.0], &[1.0; 4], &mut [0.0; 8]),
        1 => unrolled::batch_squared_distances(&[1.0], &[1.0; 4], &mut [0.0; 8]),
        _ => simd::batch_squared_distances(&[1.0], &[1.0; 4], &mut [0.0; 8]),
    });
    // Sixteen rows, seventeen outputs.
    assert_every_tier_rejects(&[1, 2], |tier| match tier {
        0 => scalar::batch_squared_distances(&[1.0; 64], &[1.0; 4], &mut [0.0; 17]),
        1 => unrolled::batch_squared_distances(&[1.0; 64], &[1.0; 4], &mut [0.0; 17]),
        _ => simd::batch_squared_distances(&[1.0; 64], &[1.0; 4], &mut [0.0; 17]),
    });
}

#[test]
fn batch_closest_column_rejects_a_short_input() {
    let columns = [vec![0.0; 4]];
    assert_every_tier_rejects(&[1, 2], |tier| match tier {
        0 => scalar::batch_closest_column(&columns, &[1.0], 4, &mut [0; 8], None),
        1 => unrolled::batch_closest_column(&columns, &[1.0], 4, &mut [0; 8], None),
        _ => simd::batch_closest_column(&columns, &[1.0], 4, &mut [0; 8], None),
    });
    // Eight well-formed rows, room for four distances.
    assert_every_tier_rejects(&[1, 2], |tier| {
        let (xs, out, distances) = (&[1.0; 32], &mut [0; 8], Some(&mut [0.0; 4][..]));
        match tier {
            0 => scalar::batch_closest_column(&columns, xs, 4, out, distances),
            1 => unrolled::batch_closest_column(&columns, xs, 4, out, distances),
            _ => simd::batch_closest_column(&columns, xs, 4, out, distances),
        }
    });
}

#[test]
fn gemv_acc_rejects_a_short_input() {
    // Eight outputs from a one-row matrix.
    let a = DenseMatrix::zeros(1, 4);
    assert_every_tier_rejects(&[1, 2], |tier| match tier {
        0 => scalar::gemv_acc(1.0, &a, &[1.0; 4], &mut [0.0; 8]),
        1 => unrolled::gemv_acc(1.0, &a, &[1.0; 4], &mut [0.0; 8]),
        _ => simd::gemv_acc(1.0, &a, &[1.0; 4], &mut [0.0; 8]),
    });
}

#[test]
fn gemm_acc_rejects_a_short_input() {
    // `b` has two of the three rows `a`'s columns call for.
    let (a, b) = (DenseMatrix::zeros(2, 3), DenseMatrix::zeros(2, 20));
    assert_every_tier_rejects(&[1, 2], |tier| {
        let out = &mut DenseMatrix::zeros(2, 20);
        match tier {
            0 => scalar::gemm_acc(out, &a, &b),
            1 => unrolled::gemm_acc(out, &a, &b),
            _ => simd::gemm_acc(out, &a, &b),
        }
    });
}

/// Column counts on both sides of every tile width the sweep uses (4, 16,
/// 32) and of the paired last lane; row strides equal to and wider than the
/// columns; both signs; salted matrix, multipliers and seeds.
#[test]
fn column_sweep_tiers_agree() {
    let col_counts = (0..=21).chain([31, 32, 33, 35, 36, 37, 63, 65]);
    for cols in col_counts {
        for rows in [0, 1, 2, 5, 9] {
            for stride in [cols, cols + 3] {
                let m = salted_data(rows * stride + 2, (cols * 7 + rows * 3 + stride) as u64);
                let x = salted_data(rows, (rows + 11) as u64);
                let seed = salted_data(cols, (cols + 5) as u64);
                for subtract in [false, true] {
                    let context = format!(
                        "column_sweep cols={cols} rows={rows} stride={stride} subtract={subtract}"
                    );
                    let mut reference = seed.clone();
                    scalar::column_sweep(&mut reference, &m, stride, &x, subtract);
                    let mut portable = seed.clone();
                    unrolled::column_sweep(&mut portable, &m, stride, &x, subtract);
                    assert_bits_eq(&reference, &portable, &format!("{context} (unrolled)"));
                    if simd::available() {
                        let mut vectored = seed.clone();
                        simd::column_sweep(&mut vectored, &m, stride, &x, subtract);
                        assert_bits_eq(&reference, &vectored, &format!("{context} (simd)"));
                    }
                }
            }
        }
    }
}

/// Block widths below, at and past one lane and several lanes, at a tight and
/// a wide row stride; entries outside the block must come back untouched.
#[test]
fn symmetric_rank2_update_tiers_agree() {
    for m in (0..=17).chain([31, 32, 33]) {
        for stride in [m, m + 5] {
            let z = salted_data(m.max(1) * stride + 3, (m * 13 + stride) as u64);
            let u = salted_data(m, (m + 21) as u64);
            let e = salted_data(m, (m + 37) as u64);
            let context = format!("symmetric_rank2_update m={m} stride={stride}");
            let mut reference = z.clone();
            scalar::symmetric_rank2_update(&mut reference, stride, &u, &e);
            let mut portable = z.clone();
            unrolled::symmetric_rank2_update(&mut portable, stride, &u, &e);
            assert_bits_eq(&reference, &portable, &format!("{context} (unrolled)"));
            if simd::available() {
                let mut vectored = z.clone();
                simd::symmetric_rank2_update(&mut vectored, stride, &u, &e);
                assert_bits_eq(&reference, &vectored, &format!("{context} (simd)"));
            }
            for (i, (before, after)) in z.iter().zip(&reference).enumerate() {
                if m == 0 || i / stride >= m || i % stride >= m {
                    assert_eq!(before.to_bits(), after.to_bits(), "{context}: {i} moved");
                }
            }
        }
    }
}

/// Widths below one panel, at and past whole panels, with rows left over
/// after the four-row tiles; a salted strictly-lower part and diagonal, and
/// an upper triangle holding a marker that must be left as found.
#[test]
fn lower_triangular_inverse_tiers_agree() {
    let marker = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    for n in (0..=19).chain([31, 32, 33, 64, 65]) {
        for salted in [false, true] {
            let values = if salted {
                salted_data(n * n, n as u64 + 3)
            } else {
                finite_data(n * n, n as u64 + 3)
            };
            let mut l = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..i {
                    l[i * n + j] = values[i * n + j];
                }
                l[i * n + i] = if salted {
                    values[i * n + i]
                } else {
                    2.0 + values[i * n + i].abs()
                };
            }
            let context = format!("lower_triangular_inverse n={n} salted={salted}");
            let mut reference = vec![marker; n * n];
            scalar::lower_triangular_inverse(&l, n, &mut reference);
            let mut portable = vec![marker; n * n];
            unrolled::lower_triangular_inverse(&l, n, &mut portable);
            assert_bits_eq(&reference, &portable, &format!("{context} (unrolled)"));
            if simd::available() {
                let mut vectored = vec![marker; n * n];
                simd::lower_triangular_inverse(&l, n, &mut vectored);
                assert_bits_eq(&reference, &vectored, &format!("{context} (simd)"));
            }
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(
                        reference[i * n + j].to_bits(),
                        marker.to_bits(),
                        "{context}"
                    );
                }
            }
        }
    }
}

#[test]
fn column_sweep_rejects_a_short_input() {
    // Three rows of eight columns at stride 8, one element short.
    assert_every_tier_rejects(&[0, 1, 2], |tier| {
        let (out, m, x) = (&mut [0.0; 8], &[1.0; 23], &[1.0; 3]);
        match tier {
            0 => scalar::column_sweep(out, m, 8, x, false),
            1 => unrolled::column_sweep(out, m, 8, x, false),
            _ => simd::column_sweep(out, m, 8, x, false),
        }
    });
}

#[test]
fn symmetric_rank2_update_rejects_a_short_input() {
    // A 6 × 6 block at stride 6 in 35 entries.
    assert_every_tier_rejects(&[0, 1, 2], |tier| {
        let (z, u, e) = (&mut [0.0; 35], &[1.0; 6], &[1.0; 6]);
        match tier {
            0 => scalar::symmetric_rank2_update(z, 6, u, e),
            1 => unrolled::symmetric_rank2_update(z, 6, u, e),
            _ => simd::symmetric_rank2_update(z, 6, u, e),
        }
    });
    // Six u against five e.
    assert_every_tier_rejects(&[1, 2], |tier| {
        let (z, u, e) = (&mut [0.0; 36], &[1.0; 6], &[1.0; 5]);
        match tier {
            0 => scalar::symmetric_rank2_update(z, 6, u, e),
            1 => unrolled::symmetric_rank2_update(z, 6, u, e),
            _ => simd::symmetric_rank2_update(z, 6, u, e),
        }
    });
}

#[test]
fn lower_triangular_inverse_rejects_a_short_input() {
    // An 8 × 8 factor into 63 entries.
    assert_every_tier_rejects(&[0, 1, 2], |tier| {
        let (l, out) = (&[1.0; 64], &mut [0.0; 63]);
        match tier {
            0 => scalar::lower_triangular_inverse(l, 8, out),
            1 => unrolled::lower_triangular_inverse(l, 8, out),
            _ => simd::lower_triangular_inverse(l, 8, out),
        }
    });
}
