//! The decompositions against their reference loops, bit for bit.
//!
//! `Cholesky::new`, `Cholesky::inverse` and the Householder reduction under
//! `SymmetricEigen` run their independent chains side by side on the kernel
//! lanes; the contract is that every output element keeps the reference
//! chain — same start value, same terms, same order, `mul` then `add`/`sub`.
//! The reference loops live here, and only here, as the oracle: the
//! one-element-at-a-time Cholesky, the transposed-column `L⁻ᵀL⁻¹`, and the
//! lower-triangle-only EISPACK `tred2` reduction, with the QL iterations, the
//! sort and the pseudo-inverse they feed restated so each public result can
//! be rebuilt from them.  The oracle's Cholesky refuses a pivot that is not
//! `> 0.0` (a NaN pivot included); that refusal is the one deliberate change
//! from the loop it restates, which accepted a NaN pivot.
//!
//! Inputs: random `XᵀX`, a duplicated column (the pseudo-inverse fallback),
//! indefinite matrices (the same error and `minor`), a zero row and column
//! (the reduction's `scale == 0` branch), magnitudes 1e±150 and 1e±300, and
//! NaN / ±∞ entries, at widths 0–9, 15–17, 31–33, 63–65 and 99–101.
//! Eigenvalues, condition numbers, `L`, inverses, eigenvectors and solutions
//! must be equal by `to_bits`, and errors equal by variant.  NaNs are the
//! hardware-generated quiet NaN, so payloads agree (see `kernel_tiers.rs`).
//!
//! The kernels dispatch once per process on `MADLIB_SIMD`, so
//! `bits_hold_under_every_simd_tier` re-runs the comparison in a child
//! process per tier.

// The oracle keeps the reference loops' index form, line for line.
#![allow(clippy::needless_range_loop)]

use madlib_linalg::decomposition::{
    symmetric_inverse_with, symmetric_solve, Cholesky, EigenWorkspace, SymmetricEigen,
};
use madlib_linalg::kernels::dispatch::{self, SimdPolicy};
use madlib_linalg::kernels::{active_path, KernelPath};
use madlib_linalg::{DenseMatrix, DenseVector, LinalgError};
use std::hint::black_box;
use std::process::Command;

const WIDTHS: [usize; 22] = [
    0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 99, 100, 101,
];

fn generated_nan() -> f64 {
    black_box(0.0f64) * black_box(f64::INFINITY)
}

struct Xorshift(u64);

impl Xorshift {
    /// A value in [-2, 2).
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    }
}

/// `XᵀX` of a random `(n + 3) × n` design, with column `duplicate.1` a copy
/// of column `duplicate.0` when given.
fn gram(n: usize, seed: u64, duplicate: Option<(usize, usize)>) -> DenseMatrix {
    let mut rng = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let rows = n + 3;
    let mut x: Vec<f64> = (0..rows * n).map(|_| rng.next()).collect();
    if let Some((from, to)) = duplicate {
        for r in 0..rows {
            x[r * n + to] = x[r * n + from];
        }
    }
    let mut a = DenseMatrix::zeros(n, n);
    for r in 0..rows {
        let xr = &x[r * n..(r + 1) * n];
        for i in 0..n {
            for j in 0..=i {
                let v = a.get(i, j) + xr[i] * xr[j];
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
    }
    a
}

fn set_symmetric(a: &mut DenseMatrix, i: usize, j: usize, v: f64) {
    a.set(i, j, v);
    a.set(j, i, v);
}

fn scaled(a: &DenseMatrix, factor: f64) -> DenseMatrix {
    let n = a.rows();
    let data = a.as_slice().iter().map(|v| v * factor).collect();
    DenseMatrix::from_row_major(n, n, data).unwrap()
}

/// Every input shape of the module docs at width `n`, labelled.
fn inputs(n: usize) -> Vec<(String, DenseMatrix)> {
    let base = gram(n, n as u64 + 1, None);
    let mut out = vec![("xtx".to_owned(), base.clone())];
    if n >= 2 {
        out.push((
            "duplicated".to_owned(),
            gram(n, n as u64 + 2, Some((0, n - 1))),
        ));
        out.push((
            "duplicated_mid".to_owned(),
            gram(n, n as u64 + 3, Some((n / 2, 0))),
        ));
    }
    if n >= 1 {
        // Indefinite: a minor in the middle, and a symmetric random matrix.
        let mut indefinite = base.clone();
        let m = n / 2;
        indefinite.set(m, m, -indefinite.get(m, m) - 1.0);
        out.push(("indefinite_mid".to_owned(), indefinite));
        let mut rng = Xorshift(n as u64 * 7 + 5);
        let mut random = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                set_symmetric(&mut random, i, j, rng.next());
            }
        }
        out.push(("random_symmetric".to_owned(), random));
    }
    if n >= 3 {
        for zero in [n / 2, n - 1] {
            let mut a = base.clone();
            for k in 0..n {
                set_symmetric(&mut a, zero, k, 0.0);
            }
            out.push((format!("zero_row_{zero}"), a));
        }
        // Rows from n/2 on decoupled from the rows before: the reduction
        // meets an all-zero row left of the diagonal at i = n/2 as well.
        let mut a = base.clone();
        for i in n / 2..n {
            for j in 0..n / 2 {
                set_symmetric(&mut a, i, j, 0.0);
            }
        }
        out.push(("block_diagonal".to_owned(), a));
    }
    for factor in [1e150, 1e-150, 1e300, 1e-300] {
        out.push((format!("scaled_{factor:e}"), scaled(&base, factor)));
    }
    if n >= 2 {
        let mut a = base.clone();
        set_symmetric(&mut a, n - 1, n / 3, generated_nan());
        out.push(("nan_offdiagonal".to_owned(), a));
        let mut a = base.clone();
        set_symmetric(&mut a, n / 2, 0, f64::INFINITY);
        out.push(("inf_offdiagonal".to_owned(), a));
        let mut a = base.clone();
        a.set(n - 1, n - 1, f64::NEG_INFINITY);
        out.push(("neg_inf_diagonal".to_owned(), a));
        let mut a = base.clone();
        a.set(0, 0, f64::INFINITY);
        out.push(("inf_diagonal".to_owned(), a));
    }
    out
}

// ---------------------------------------------------------------------------
// The oracle: the reference loops.
// ---------------------------------------------------------------------------

type Oracle<T> = Result<T, LinalgError>;

/// One element at a time, row by row.
fn oracle_cholesky(a: &DenseMatrix) -> Oracle<DenseMatrix> {
    let n = a.rows();
    let mut l = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 || sum.is_nan() {
                    return Err(LinalgError::NotPositiveDefinite { minor: i });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// `L⁻¹` column by column, stored transposed, then `L⁻ᵀL⁻¹`.
fn oracle_cholesky_inverse(l: &DenseMatrix) -> DenseMatrix {
    let n = l.rows();
    let mut linvt = vec![0.0; n * n];
    for j in 0..n {
        linvt[j * n + j] = 1.0 / l.get(j, j);
        for i in (j + 1)..n {
            let row_i = l.row_slice(i);
            let col_j = &linvt[j * n..j * n + i];
            let mut sum = 0.0;
            for k in j..i {
                sum -= row_i[k] * col_j[k];
            }
            linvt[j * n + i] = sum / l.get(i, i);
        }
    }
    let mut out = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let ci = &linvt[i * n..(i + 1) * n];
            let cj = &linvt[j * n..(j + 1) * n];
            let mut sum = 0.0;
            for k in i..n {
                sum += ci[k] * cj[k];
            }
            out.set(i, j, sum);
            out.set(j, i, sum);
        }
    }
    out
}

fn oracle_stage(a: &DenseMatrix) -> Oracle<Vec<f64>> {
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::EmptyInput {
            operation: "symmetric eigendecomposition",
        });
    }
    let mut z = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            z[i * n + j] = a.get(i, j);
            z[j * n + i] = a.get(i, j);
        }
    }
    Ok(z)
}

/// The lower-triangle-only Householder reduction.
fn oracle_householder(n: usize, z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let mut scale = 0.0;
            for k in 0..=l {
                scale += z[i * n + k].abs();
            }
            if scale == 0.0 {
                e[i] = z[i * n + l];
            } else {
                for k in 0..=l {
                    z[i * n + k] /= scale;
                    h += z[i * n + k] * z[i * n + k];
                }
                let mut f = z[i * n + l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[i * n + l] = f - g;
                f = 0.0;
                for j in 0..=l {
                    z[j * n + i] = z[i * n + j] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[j * n + k] * z[i * n + k];
                    }
                    for k in (j + 1)..=l {
                        g += z[k * n + j] * z[i * n + k];
                    }
                    e[j] = g / h;
                    f += e[j] * z[i * n + j];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = z[i * n + j];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        z[j * n + k] -= f * e[k] + g * z[i * n + k];
                    }
                }
            }
        } else {
            e[i] = z[i * n + l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
}

fn oracle_tred2(n: usize, z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    oracle_householder(n, z, d, e);
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[i * n + k] * z[k * n + j];
                }
                for k in 0..i {
                    z[k * n + j] -= g * z[k * n + i];
                }
            }
        }
        d[i] = z[i * n + i];
        z[i * n + i] = 1.0;
        for j in 0..i {
            z[j * n + i] = 0.0;
            z[i * n + j] = 0.0;
        }
    }
}

fn oracle_ql<R: FnMut(usize, f64, f64)>(
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    mut rotate: R,
) -> Oracle<()> {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iterations = 0;
        loop {
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iterations += 1;
            if iterations > 50 {
                return Err(LinalgError::DidNotConverge { iterations: 50 });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rotate(i, s, c);
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

fn descending(values: &mut [f64]) {
    values.sort_by(|x, y| y.partial_cmp(x).unwrap_or(std::cmp::Ordering::Equal));
}

fn oracle_eigenvalues(a: &DenseMatrix) -> Oracle<Vec<f64>> {
    let mut z = oracle_stage(a)?;
    let n = a.rows();
    let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
    oracle_householder(n, &mut z, &mut d, &mut e);
    for i in 0..n {
        d[i] = z[i * n + i];
    }
    oracle_ql(n, &mut d, &mut e, |_, _, _| {})?;
    descending(&mut d);
    Ok(d)
}

/// Values (descending) and the matching eigenvector columns.
fn oracle_eigen(a: &DenseMatrix) -> Oracle<(Vec<f64>, DenseMatrix)> {
    let mut z = oracle_stage(a)?;
    let n = a.rows();
    let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
    oracle_tred2(n, &mut z, &mut d, &mut e);
    oracle_ql(n, &mut d, &mut e, |i, s, c| {
        for k in 0..n {
            let f = z[k * n + i + 1];
            z[k * n + i + 1] = s * z[k * n + i] + c * f;
            z[k * n + i] = c * z[k * n + i] - s * f;
        }
    })?;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
    let values = order.iter().map(|&i| d[i]).collect();
    let mut vectors = DenseMatrix::zeros(n, n);
    for r in 0..n {
        for (new_col, &old_col) in order.iter().enumerate() {
            vectors.set(r, new_col, z[r * n + old_col]);
        }
    }
    Ok((values, vectors))
}

fn oracle_condition(values: &[f64]) -> f64 {
    let max = values.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    let min = values.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
    if min <= (1e-14 * max).max(1e-300) {
        f64::INFINITY
    } else {
        max / min
    }
}

fn oracle_pseudo_inverse(values: &[f64], vectors: &DenseMatrix, tolerance: f64) -> DenseMatrix {
    let n = values.len();
    let max_abs = values.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    let cutoff = tolerance * max_abs.max(1e-300);
    let mut out = DenseMatrix::zeros(n, n);
    let mut col = vec![0.0; n];
    for k in 0..n {
        let lambda = values[k];
        if lambda.abs() <= cutoff {
            continue;
        }
        let inv_lambda = 1.0 / lambda;
        for (i, slot) in col.iter_mut().enumerate() {
            *slot = vectors.get(i, k);
        }
        for i in 0..n {
            let f = inv_lambda * col[i];
            if f == 0.0 {
                continue;
            }
            for (o, &vjk) in out.row_slice_mut(i).iter_mut().zip(&col) {
                *o += f * vjk;
            }
        }
    }
    out
}

fn oracle_symmetric_inverse(a: &DenseMatrix, tolerance: f64) -> Oracle<(DenseMatrix, f64)> {
    let values = oracle_eigenvalues(a)?;
    let condition = oracle_condition(&values);
    let max_abs = values.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    let min_abs = values.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
    let cutoff = tolerance * max_abs.max(1e-300);
    if min_abs > cutoff && values.iter().all(|&v| v > 0.0) {
        if let Ok(l) = oracle_cholesky(a) {
            return Ok((oracle_cholesky_inverse(&l), condition));
        }
    }
    let (values, vectors) = oracle_eigen(a)?;
    Ok((
        oracle_pseudo_inverse(&values, &vectors, tolerance),
        oracle_condition(&values),
    ))
}

/// `symmetric_solve` over the oracle: Cholesky solve when the pivots are
/// spread less than `tolerance`, else the eigen pseudo-inverse.
fn oracle_symmetric_solve(a: &DenseMatrix, b: &[f64], tolerance: f64) -> Oracle<Vec<f64>> {
    let n = a.rows();
    if let Ok(l) = oracle_cholesky(a) {
        let mut min_pivot2 = f64::INFINITY;
        let mut max_pivot2 = 0.0_f64;
        for i in 0..n {
            let p2 = l.get(i, i).powi(2);
            min_pivot2 = min_pivot2.min(p2);
            max_pivot2 = max_pivot2.max(p2);
        }
        if min_pivot2 > tolerance * max_pivot2 {
            let mut y = vec![0.0; n];
            for i in 0..n {
                let mut sum = b[i];
                for k in 0..i {
                    sum -= l.get(i, k) * y[k];
                }
                y[i] = sum / l.get(i, i);
            }
            let mut x = vec![0.0; n];
            for i in (0..n).rev() {
                let mut sum = y[i];
                for k in (i + 1)..n {
                    sum -= l.get(k, i) * x[k];
                }
                x[i] = sum / l.get(i, i);
            }
            return Ok(x);
        }
    }
    let (values, vectors) = oracle_eigen(a)?;
    let pinv = oracle_pseudo_inverse(&values, &vectors, tolerance);
    Ok((0..n)
        .map(|i| {
            let mut sum = 0.0;
            for (p, x) in pinv.row_slice(i).iter().zip(b) {
                sum += p * x;
            }
            sum
        })
        .collect())
}

// ---------------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------------

fn assert_bits(context: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{context}: {what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{context}: {what}[{i}] is {g:?}, the reference {w:?}"
        );
    }
}

/// Both `Ok` with equal bits (by `bits`), or both `Err` with equal errors.
fn assert_same<T, U>(
    context: &str,
    what: &str,
    got: Result<T, LinalgError>,
    want: Result<U, LinalgError>,
    bits: impl Fn(&str, &T, &U),
) {
    match (got, want) {
        (Ok(got), Ok(want)) => bits(&format!("{context}: {what}"), &got, &want),
        (Err(got), Err(want)) => assert_eq!(got, want, "{context}: {what} error"),
        (Ok(_), Err(want)) => panic!("{context}: {what} is Ok, the reference fails with {want:?}"),
        (Err(got), Ok(_)) => panic!("{context}: {what} fails with {got:?}, the reference is Ok"),
    }
}

fn check(label: &str, a: &DenseMatrix, workspace: &mut EigenWorkspace) {
    let n = a.rows();
    let context = format!("n={n} {label}");

    assert_same(
        &context,
        "L",
        Cholesky::new(a),
        oracle_cholesky(a),
        |c, got, want| {
            assert_bits(c, "L", got.l().as_slice(), want.as_slice());
            assert_bits(
                c,
                "inverse",
                got.inverse().as_slice(),
                oracle_cholesky_inverse(want).as_slice(),
            );
        },
    );
    assert_same(
        &context,
        "eigenvalues",
        SymmetricEigen::eigenvalues_with(a, workspace),
        oracle_eigenvalues(a),
        |c, got, want| assert_bits(c, "eigenvalues", got, want),
    );
    assert_same(
        &context,
        "eigen",
        SymmetricEigen::new_with(a, workspace),
        oracle_eigen(a),
        |c, got, (values, vectors)| {
            assert_bits(c, "values", got.values(), values);
            assert_bits(c, "vectors", got.vectors().as_slice(), vectors.as_slice());
            assert_bits(
                c,
                "condition",
                &[got.condition_number()],
                &[oracle_condition(values)],
            );
        },
    );
    assert_same(
        &context,
        "symmetric_inverse_with",
        symmetric_inverse_with(a, 1e-10, workspace),
        oracle_symmetric_inverse(a, 1e-10),
        |c, (inverse, condition), (want, want_condition)| {
            assert_bits(c, "inverse", inverse.as_slice(), want.as_slice());
            assert_bits(c, "condition", &[*condition], &[*want_condition]);
        },
    );
    if n > 0 {
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        assert_same(
            &context,
            "symmetric_solve",
            symmetric_solve(a, &DenseVector::from_vec(b.clone()), 1e-12),
            oracle_symmetric_solve(a, &b, 1e-12),
            |c, got, want| assert_bits(c, "x", got.as_slice(), want),
        );
    }
}

/// Every input at every width, against the oracle, on the process's tier.
#[test]
fn decompositions_match_the_reference_loops() {
    let mut workspace = EigenWorkspace::new();
    let mut fallbacks = 0;
    let mut refusals = 0;
    for n in WIDTHS {
        for (label, a) in inputs(n) {
            check(&label, &a, &mut workspace);
            if n > 0 && oracle_cholesky(&a).is_err() {
                refusals += 1;
            }
            if label.starts_with("duplicated") {
                let values = oracle_eigenvalues(&a).unwrap();
                fallbacks += usize::from(oracle_condition(&values).is_infinite());
            }
        }
    }
    // The inputs reach what they are there for.
    assert!(
        fallbacks >= 20,
        "only {fallbacks} duplicated columns were singular"
    );
    assert!(refusals >= 60, "only {refusals} refused factorizations");
}

/// The zero row and the decoupled block reach the reduction's `scale == 0`
/// branch, which leaves `h = 0` and a zero off-diagonal behind.
#[test]
fn zero_rows_reach_the_zero_scale_branch() {
    let n = 9;
    for (label, at) in [("zero_row_8", 8), ("block_diagonal", 4)] {
        let (_, a) = inputs(n).into_iter().find(|(l, _)| l == label).unwrap();
        let mut z = oracle_stage(&a).unwrap();
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
        oracle_householder(n, &mut z, &mut d, &mut e);
        assert_eq!((d[at], e[at]), (0.0, 0.0), "{label}");
    }
}

/// A NaN off the diagonal of an SPD matrix: the pivot it reaches is refused
/// (the parent loop took it and factored to NaN), and `symmetric_solve`
/// returns the eigen path's typed error instead of `Ok` of NaNs.
#[test]
fn a_nan_pivot_is_refused() {
    let mut a = gram(6, 42, None);
    set_symmetric(&mut a, 4, 1, generated_nan());
    assert_eq!(
        Cholesky::new(&a).unwrap_err(),
        LinalgError::NotPositiveDefinite { minor: 4 }
    );
    let b = DenseVector::from_vec(vec![1.0; 6]);
    assert!(matches!(
        symmetric_solve(&a, &b, 1e-12),
        Err(LinalgError::DidNotConverge { .. })
    ));
}

/// Re-runs [`decompositions_match_the_reference_loops`] in a child process
/// per `MADLIB_SIMD` tier other than this process's own (the dispatch is
/// fixed per process).
#[test]
fn bits_hold_under_every_simd_tier() {
    let exe = std::env::current_exe().unwrap();
    let tiers = [
        ("scalar", KernelPath::Scalar),
        ("off", KernelPath::Unrolled),
        ("auto", dispatch::resolve(SimdPolicy::Auto)),
    ];
    for (tier, path) in tiers {
        if path == active_path() {
            continue;
        }
        let output = Command::new(&exe)
            .args(["decompositions_match_the_reference_loops", "--exact"])
            .env("MADLIB_SIMD", tier)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success() && stdout.contains("1 passed"),
            "MADLIB_SIMD={tier}:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
    }
}
