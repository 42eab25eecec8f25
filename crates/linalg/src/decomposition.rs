//! Matrix decompositions and solvers.
//!
//! The MADlib linear-regression final function (paper Listing 2) computes the
//! Moore–Penrose pseudo-inverse of the symmetric positive semi-definite matrix
//! `XᵀX` via an eigendecomposition, and reports the condition number.  This
//! module provides the equivalent building blocks: Cholesky and LU
//! factorizations for well-conditioned systems, and a symmetric
//! eigendecomposition (Householder tridiagonalization followed by the
//! implicit-shift QL iteration) for the pseudo-inverse / condition-number
//! path.  Grouped training runs one decomposition per group, so
//! [`EigenWorkspace`] lets callers reuse the O(n²) working buffers across
//! repeated [`SymmetricEigen::new_with`] calls instead of allocating per
//! group, and [`symmetric_inverse_with`] / [`symmetric_solve`] wrap the
//! whole pattern: a cheap eigenvalues-only probe
//! ([`SymmetricEigen::eigenvalues_with`]) gates a Cholesky fast path for the
//! full-rank common case, with the eigendecomposition pseudo-inverse kept
//! for rank-deficient inputs.
//!
//! # The per-element-chain contract
//!
//! The three O(n³) loops — the Householder reduction under every
//! eigendecomposition, the Cholesky factor and [`Cholesky::inverse`] — run
//! on [`kernels`], and every output element keeps the chain the textbook
//! loop computes for it: the same start value, the same terms in the same
//! order, `mul` then `add`/`sub`, no fused multiply-add.  What the kernels
//! choose is which independent chains advance side by side on the lanes:
//!
//! * **Householder reduction** — the active block is kept symmetric in full,
//!   so `p = A·u` is one [`kernels::column_sweep`] whose lanes are the
//!   entries `p[j]` (each summing `A[j][k]·u[k]` for `k` ascending), and the
//!   rank-2 update one [`kernels::symmetric_rank2_update`] whose lanes are
//!   contiguous entries of a row.
//! * **Cholesky** — column by column: given the columns before `j`, the rows
//!   `i ≥ j` of column `j` are independent chains seeded with `a(i, j)`, one
//!   [`kernels::column_sweep`] down the earlier columns.  The pivot is tested
//!   before the rows below it are divided, so the refused `minor` is the one
//!   a row-by-row loop meets first.
//! * **Inverse** — [`kernels::lower_triangular_inverse`] solves four columns
//!   of `L⁻¹` per pass, each lane's chain starting at its own column, and row
//!   `i` of `L⁻ᵀL⁻¹` is one [`kernels::column_sweep`] over all its outputs
//!   `j ≤ i`, which share the terms `k ≥ i`.
//!
//! So every kernel tier, and the loops as first written, give the same bits
//! (`tests/decomposition_bits.rs` keeps those loops as its oracle).  The QL
//! iterations (`tql1` / `tql2`) and `tred2`'s accumulation are serial chains
//! and stay plain loops.

use crate::dense::{DenseMatrix, DenseVector};
use crate::error::{LinalgError, Result};
use crate::kernels;

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: DenseMatrix,
}

impl Cholesky {
    /// Computes the factorization.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is not `> 0.0` — a
    ///   NaN pivot included, which a NaN in the lower triangle of `a` leads
    ///   to.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut l = DenseMatrix::zeros(n, n);
        let ld = l.as_mut_slice();
        // Row k's upper triangle holds column k of L below the diagonal
        // (ld[k*n + i] = L[i][k], i > k) until column i has read it, so the
        // chains of column j sweep down contiguous rows; the lower triangle
        // gets each column as it is finished.
        for j in 0..n {
            let (done, rest) = ld.split_at_mut(j * n);
            let (row, below) = rest.split_at_mut(n);
            let (row, chains) = row.split_at_mut(j);
            // L[i][j] for i ≥ j: a(i, j) − Σ_{k<j} L[i][k]·L[j][k], k in order.
            for (c, sum) in chains.iter_mut().enumerate() {
                *sum = a.get(j + c, j);
            }
            kernels::column_sweep(chains, &done[j..], n, row, true);
            for above in done.chunks_exact_mut(n) {
                above[j] = 0.0;
            }
            // `> 0.0` is false for NaN: a NaN pivot is refused too.
            let pivot = if chains[0] > 0.0 {
                chains[0].sqrt()
            } else {
                return Err(LinalgError::NotPositiveDefinite { minor: j });
            };
            chains[0] = pivot;
            for (sum, below) in chains[1..].iter_mut().zip(below.chunks_exact_mut(n)) {
                *sum /= pivot;
                below[j] = *sum;
            }
        }
        Ok(Self { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solves `A x = b` using the factorization.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &DenseVector) -> Result<DenseVector> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "cholesky solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut sum = b[i];
            #[allow(clippy::needless_range_loop)] // triangular access below the diagonal
            for k in 0..i {
                sum -= self.l.get(i, k) * y[k];
            }
            y[i] = sum / self.l.get(i, i);
        }
        // Back substitution Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            #[allow(clippy::needless_range_loop)] // triangular access above the diagonal
            for k in (i + 1)..n {
                sum -= self.l.get(k, i) * x[k];
            }
            x[i] = sum / self.l.get(i, i);
        }
        Ok(DenseVector::from_vec(x))
    }

    /// Inverse of the original matrix, `A⁻¹ = L⁻ᵀ L⁻¹`.
    ///
    /// `L⁻¹` is row-major, so four of its columns are one lane load: the
    /// substitution ([`kernels::lower_triangular_inverse`]) solves four
    /// columns per pass, and row `i` of the product is one
    /// [`kernels::column_sweep`] down rows `k ≥ i` of `L⁻¹`, with column `i`
    /// of `L⁻¹` read from row `i`'s upper triangle, where it is mirrored.
    pub fn inverse(&self) -> DenseMatrix {
        let n = self.l.rows();
        let mut linv = vec![0.0; n * n];
        kernels::lower_triangular_inverse(self.l.as_slice(), n, &mut linv);
        for i in 0..n {
            for k in i + 1..n {
                linv[i * n + k] = linv[k * n + i];
            }
        }
        // (A⁻¹)[i][j] = Σ_{k ≥ i} (L⁻¹)[k][i] (L⁻¹)[k][j] for j ≤ i.
        let mut out = DenseMatrix::zeros(n, n);
        let od = out.as_mut_slice();
        for i in 0..n {
            let column = &linv[i * n + i..(i + 1) * n];
            kernels::column_sweep(&mut od[i * n..=i * n + i], &linv[i * n..], n, column, false);
            for j in 0..i {
                od[j * n + i] = od[i * n + j];
            }
        }
        out
    }
}

/// LU factorization with partial pivoting, `P A = L U`.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: DenseMatrix,
    perm: Vec<usize>,
}

impl Lu {
    /// Computes the factorization.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is (numerically) zero.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Find pivot.
            let mut pivot_row = col;
            let mut pivot_val = lu.get(col, col).abs();
            for r in (col + 1)..n {
                let v = lu.get(r, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular { pivot: pivot_val });
            }
            if pivot_row != col {
                for c in 0..n {
                    let a = lu.get(col, c);
                    let b = lu.get(pivot_row, c);
                    lu.set(col, c, b);
                    lu.set(pivot_row, c, a);
                }
                perm.swap(col, pivot_row);
            }
            let pivot = lu.get(col, col);
            for r in (col + 1)..n {
                let factor = lu.get(r, col) / pivot;
                lu.set(r, col, factor);
                for c in (col + 1)..n {
                    let v = lu.get(r, c) - factor * lu.get(col, c);
                    lu.set(r, c, v);
                }
            }
        }
        Ok(Self { lu, perm })
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &DenseVector) -> Result<DenseVector> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Apply permutation.
        let mut y = vec![0.0; n];
        for i in 0..n {
            y[i] = b[self.perm[i]];
        }
        // Forward substitution (unit lower triangular).
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.lu.get(i, k) * y[k];
            }
        }
        // Back substitution.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                y[i] -= self.lu.get(i, k) * y[k];
            }
            y[i] /= self.lu.get(i, i);
        }
        Ok(DenseVector::from_vec(y))
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    /// Propagates solver errors (cannot normally fail once factorized).
    pub fn inverse(&self) -> Result<DenseMatrix> {
        let n = self.lu.rows();
        let mut inv = DenseMatrix::zeros(n, n);
        for c in 0..n {
            let mut e = DenseVector::zeros(n);
            e[c] = 1.0;
            let col = self.solve(&e)?;
            for r in 0..n {
                inv.set(r, c, col[r]);
            }
        }
        Ok(inv)
    }
}

/// Reusable working storage for [`SymmetricEigen::new_with`].
///
/// Holds the tridiagonalization buffers (an n×n transform accumulator plus
/// the diagonal / off-diagonal vectors).  One workspace serves matrices of
/// any size — buffers grow on demand and are reused across calls — so a
/// finalize worker that decomposes one `XᵀX` per group pays the O(n²)
/// allocations once instead of per group.  The workspace carries no state
/// between calls: results are identical with a fresh or a reused workspace.
#[derive(Debug, Default)]
pub struct EigenWorkspace {
    /// Row-major n×n working matrix (tridiagonalized copy, then transforms).
    z: Vec<f64>,
    /// Diagonal of the tridiagonal form / eigenvalues in place.
    d: Vec<f64>,
    /// Off-diagonal of the tridiagonal form.
    e: Vec<f64>,
}

impl EigenWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Symmetric eigendecomposition: Householder reduction to tridiagonal form
/// followed by the implicit-shift QL iteration (the classic EISPACK
/// `tred2`/`tql2` pair) — O(n³) with a small constant, against the O(n³)
/// *per sweep* of the cyclic Jacobi method it replaced.
///
/// Eigenvalues are returned in descending order with matching eigenvectors as
/// columns of [`SymmetricEigen::vectors`].
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    values: Vec<f64>,
    vectors: DenseMatrix,
}

impl SymmetricEigen {
    /// Maximum QL iterations per eigenvalue before giving up.
    const MAX_QL_ITERATIONS: usize = 50;

    /// Computes the decomposition of a symmetric matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry is assumed.
    ///
    /// # Errors
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::EmptyInput`] if `a` is 0×0.
    /// * [`LinalgError::DidNotConverge`] if the QL iteration stalls.
    pub fn new(a: &DenseMatrix) -> Result<Self> {
        Self::new_with(a, &mut EigenWorkspace::new())
    }

    /// [`SymmetricEigen::new`] reusing the buffers in `workspace`.
    ///
    /// # Errors
    /// Same contract as [`SymmetricEigen::new`].
    pub fn new_with(a: &DenseMatrix, workspace: &mut EigenWorkspace) -> Result<Self> {
        let n = stage_symmetrized(a, workspace)?;
        let z = &mut workspace.z;

        tred2(n, z, &mut workspace.d, &mut workspace.e);
        tql2(n, z, &mut workspace.d, &mut workspace.e)?;

        // Sort eigenvalues descending and permute the eigenvector columns of
        // z (the accumulated transforms) to match.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            workspace.d[j]
                .partial_cmp(&workspace.d[i])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let values: Vec<f64> = order.iter().map(|&i| workspace.d[i]).collect();
        let mut vectors = DenseMatrix::zeros(n, n);
        for r in 0..n {
            let src = &workspace.z[r * n..(r + 1) * n];
            let dst = vectors.row_slice_mut(r);
            for (new_col, &old_col) in order.iter().enumerate() {
                dst[new_col] = src[old_col];
            }
        }
        Ok(Self { values, vectors })
    }

    /// Eigenvalues in descending order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Eigen*values* only, in descending order, reusing `workspace`.
    ///
    /// Skips the O(n³) transform accumulation and eigenvector rotations of
    /// the full decomposition — roughly 4× less work — while producing
    /// values **bit-identical** to [`SymmetricEigen::values`]: the
    /// tridiagonalization and QL value updates never read the eigenvector
    /// accumulator, so dropping it cannot change them.  This is the cheap
    /// probe behind [`symmetric_inverse_with`]'s Cholesky fast path and the
    /// MADlib `condition_no` output.
    ///
    /// # Errors
    /// Same contract as [`SymmetricEigen::new`].
    pub fn eigenvalues_with(a: &DenseMatrix, workspace: &mut EigenWorkspace) -> Result<Vec<f64>> {
        let n = stage_symmetrized(a, workspace)?;
        let z = &mut workspace.z;
        householder_tridiagonalize(n, z, &mut workspace.d, &mut workspace.e);
        // The reflectors were applied to z in place, so its diagonal holds
        // the tridiagonal diagonal (tred2's accumulation phase reads the
        // same entries; see householder_tridiagonalize).
        for i in 0..n {
            workspace.d[i] = z[i * n + i];
        }
        tql1(n, &mut workspace.d, &mut workspace.e)?;
        let mut values = workspace.d.clone();
        values.sort_by(|x, y| y.partial_cmp(x).unwrap_or(std::cmp::Ordering::Equal));
        Ok(values)
    }

    /// Eigenvectors as matrix columns (column `i` pairs with `values()[i]`).
    pub fn vectors(&self) -> &DenseMatrix {
        &self.vectors
    }

    /// Condition number: ratio of largest to smallest *absolute* eigenvalue.
    ///
    /// Returns `f64::INFINITY` when the smallest eigenvalue is (numerically)
    /// zero, matching the semantics MADlib reports in the `condition_no`
    /// output column.  "Numerically zero" is relative — below `1e-14 ·
    /// max|λ|`, the same machine-epsilon scale the eigendecomposition
    /// resolves eigenvalues to — so a singular matrix reports an infinite
    /// condition number even when rounding leaves its zero eigenvalue as
    /// O(ε·‖A‖) noise rather than an exact `0.0`.
    pub fn condition_number(&self) -> f64 {
        condition_number_of(&self.values)
    }

    /// Moore–Penrose pseudo-inverse built from the decomposition.
    ///
    /// Eigenvalues whose magnitude is below `tolerance * max|λ|` are treated
    /// as zero (their reciprocal contribution is dropped), which is how the
    /// paper's `SymmetricPositiveDefiniteEigenDecomposition` handles the
    /// rank-deficient case.
    ///
    /// Each kept eigenvector is copied to a contiguous buffer and the rank-1
    /// update runs over whole output-row slices, so the O(n³) accumulation
    /// stays on autovectorizable contiguous loads instead of per-element
    /// `get`/`add_to` calls.
    pub fn pseudo_inverse(&self, tolerance: f64) -> DenseMatrix {
        let n = self.values.len();
        let max_abs = self.values.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
        let cutoff = tolerance * max_abs.max(1e-300);
        let mut out = DenseMatrix::zeros(n, n);
        let mut col = vec![0.0; n];
        for k in 0..n {
            let lambda = self.values[k];
            if lambda.abs() <= cutoff {
                continue;
            }
            let inv_lambda = 1.0 / lambda;
            for (i, slot) in col.iter_mut().enumerate() {
                *slot = self.vectors.get(i, k);
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
}

/// Householder reduction of a symmetric matrix to tridiagonal form with
/// accumulated transformations (EISPACK `tred2`, zero-indexed).
///
/// On entry `z` holds the symmetric input row-major; on exit `z` holds the
/// accumulated orthogonal transform `Q` (so `Qᵀ A Q` is tridiagonal), `d` the
/// diagonal and `e[1..]` the sub-diagonal of the tridiagonal form.
fn tred2(n: usize, z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    householder_tridiagonalize(n, z, d, e);
    // Accumulate the transformations.
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

/// The reduction phase of [`tred2`]: applies the Householder reflectors to
/// `z` in place (so the leading diagonal of `z` ends up holding the
/// tridiagonal diagonal) and leaves the reflector scalars in `d` for the
/// accumulation phase.  Callers that only need eigen*values* skip the O(n³)
/// transform accumulation and read the diagonal straight out of `z` — the
/// resulting `d`/`e` are bit-identical to the full [`tred2`] path because
/// the accumulation phase never feeds back into them.
///
/// The active block `z[0..i][0..i]` is kept symmetric in full (on entry `z`
/// is the symmetrized input), which the reference form — lower triangle
/// only — never needed: the rank-2 update gives `(j, k)` and `(k, j)` the
/// same bits because its two products and their sum commute.  That makes
/// `p = A·u` a sweep down contiguous rows ([`kernels::column_sweep`], `p[j]`
/// still summing `A[j][k]·u[k]` for `k = 0 ..= l` in order) and the update a
/// contiguous row sweep ([`kernels::symmetric_rank2_update`]).  Only the
/// lower triangle, the diagonal and the reflector columns are ever read
/// afterwards, and those are the reference's bits.
fn householder_tridiagonalize(n: usize, z: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            // Rows 0..=l are the active block; row i holds u.
            let (block, rest) = z.split_at_mut(i * n);
            let u = &mut rest[..i];
            let mut scale = 0.0;
            for x in u.iter() {
                scale += x.abs();
            }
            if scale == 0.0 {
                e[i] = u[l];
            } else {
                for x in u.iter_mut() {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = u[l];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[l] = f - g;
                let p = &mut e[..i];
                p.fill(0.0);
                kernels::column_sweep(p, block, n, u, false);
                // p /= h, f = p·u, and the reflector column tred2's
                // accumulation reads.
                let mut f = 0.0;
                for (j, (pj, &uj)) in p.iter_mut().zip(u.iter()).enumerate() {
                    block[j * n + i] = uj / h;
                    *pj /= h;
                    f += *pj * uj;
                }
                let hh = f / (h + h);
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj -= hh * uj;
                }
                kernels::symmetric_rank2_update(block, n, u, p);
            }
        } else {
            e[i] = z[i * n + l];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix with
/// eigenvector accumulation (EISPACK `tql2`, zero-indexed).
///
/// On entry `d`/`e` hold the tridiagonal form and `z` the transform from
/// [`tred2`]; on exit `d` holds the (unsorted) eigenvalues and the columns of
/// `z` the matching eigenvectors.
///
/// # Errors
/// [`LinalgError::DidNotConverge`] when an eigenvalue needs more than
/// `SymmetricEigen::MAX_QL_ITERATIONS` implicit shifts.
fn tql2(n: usize, z: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    ql_implicit_shift(n, d, e, |i, s, c| {
        // Rotate eigenvector columns i and i+1.
        for k in 0..n {
            let f = z[k * n + i + 1];
            z[k * n + i + 1] = s * z[k * n + i] + c * f;
            z[k * n + i] = c * z[k * n + i] - s * f;
        }
    })
}

/// Eigenvalues-only QL iteration (EISPACK `tql1`): identical `d`/`e`
/// arithmetic to [`tql2`] — the eigenvector rotations never feed back into
/// the value updates — without the O(n³) rotation work.
fn tql1(n: usize, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    ql_implicit_shift(n, d, e, |_, _, _| {})
}

/// The shared implicit-shift QL loop behind [`tql2`] and [`tql1`]: `rotate`
/// is called with `(i, s, c)` for every plane rotation so the caller can
/// apply it to an eigenvector accumulator (or ignore it).  The `d`/`e`
/// update sequence is independent of `rotate`, so both callers produce
/// bit-identical eigenvalues.
fn ql_implicit_shift<R: FnMut(usize, f64, f64)>(
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    mut rotate: R,
) -> Result<()> {
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iterations = 0;
        loop {
            // Look for a single small sub-diagonal element to split the
            // matrix.
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
            if iterations > SymmetricEigen::MAX_QL_ITERATIONS {
                return Err(LinalgError::DidNotConverge {
                    iterations: SymmetricEigen::MAX_QL_ITERATIONS,
                });
            }
            // Form the implicit shift.
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
                    // Recover from underflow by deflating early.
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

/// Validates `a` and stages a symmetrized copy (lower triangle mirrored up)
/// plus sized `d`/`e` buffers in `workspace`; returns the dimension.
fn stage_symmetrized(a: &DenseMatrix, workspace: &mut EigenWorkspace) -> Result<usize> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::EmptyInput {
            operation: "symmetric eigendecomposition",
        });
    }
    workspace.z.clear();
    workspace.z.resize(n * n, 0.0);
    workspace.d.clear();
    workspace.d.resize(n, 0.0);
    workspace.e.clear();
    workspace.e.resize(n, 0.0);
    let z = &mut workspace.z;
    for i in 0..n {
        for j in 0..=i {
            let v = a.get(i, j);
            z[i * n + j] = v;
            z[j * n + i] = v;
        }
    }
    Ok(n)
}

/// Condition number of a symmetric matrix from its eigenvalues: ratio of
/// largest to smallest *absolute* eigenvalue, `f64::INFINITY` when the
/// smallest is numerically zero (below `1e-14 · max|λ|`, the machine-epsilon
/// scale the decomposition resolves eigenvalues to).
fn condition_number_of(values: &[f64]) -> f64 {
    let max = values.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    let min = values.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
    if min <= (1e-14 * max).max(1e-300) {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Pseudo-inverse of a symmetric positive semi-definite matrix plus its
/// condition number, with a **Cholesky fast path** for the full-rank case.
///
/// A cheap eigenvalues-only pass ([`SymmetricEigen::eigenvalues_with`])
/// yields the exact condition number; when no eigenvalue falls below the
/// pseudo-inverse cutoff (`tolerance · max|λ|`) the pseudo-inverse *is* the
/// plain inverse, so it is computed by Cholesky factorization
/// (`A⁻¹ = L⁻ᵀL⁻¹`, roughly 4× less work than accumulating eigenvectors).
/// Rank-deficient or indefinite inputs — an eigenvalue under the cutoff, or
/// a failed factorization — fall back to the full eigendecomposition's
/// [`SymmetricEigen::pseudo_inverse`], preserving its dropped-eigenvalue
/// semantics exactly.
///
/// Only the lower triangle of `a` is read.  This is the hot per-group
/// finalize kernel of grouped linear regression: one `(XᵀX)⁺` per group,
/// with `workspace` reused across a worker's groups.
///
/// # Errors
/// Propagates eigendecomposition errors ([`LinalgError::NotSquare`],
/// [`LinalgError::EmptyInput`], [`LinalgError::DidNotConverge`]).
pub fn symmetric_inverse_with(
    a: &DenseMatrix,
    tolerance: f64,
    workspace: &mut EigenWorkspace,
) -> Result<(DenseMatrix, f64)> {
    let values = SymmetricEigen::eigenvalues_with(a, workspace)?;
    let condition = condition_number_of(&values);
    let max_abs = values.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    let min_abs = values.iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min);
    let cutoff = tolerance * max_abs.max(1e-300);
    if min_abs > cutoff && values.iter().all(|&v| v > 0.0) {
        if let Ok(chol) = Cholesky::new(a) {
            return Ok((chol.inverse(), condition));
        }
    }
    let eig = SymmetricEigen::new_with(a, workspace)?;
    Ok((eig.pseudo_inverse(tolerance), eig.condition_number()))
}

/// Solves the symmetric positive semi-definite system `A x = b` with the
/// same Cholesky-first strategy as [`symmetric_inverse_with`]: factorize and
/// substitute when `A` is comfortably positive definite (O(n³/3) and no
/// eigenvector accumulation), fall back to the eigendecomposition
/// pseudo-inverse when the factorization fails or the pivot spread suggests
/// the pseudo-inverse would drop an eigenvalue (`min Lᵢᵢ² ≤ tolerance ·
/// max Lᵢᵢ²` — a conservative stand-in for `λ_min ≤ tolerance · λ_max`, so
/// near-singular systems keep the pseudo-inverse's regularizing behavior).
/// This is the per-iteration Newton-step solve of IRLS logistic regression.
///
/// # Errors
/// Propagates dimension mismatches and eigendecomposition errors from the
/// fallback path.  A NaN pivot is refused like a non-positive one, so a NaN
/// in `a` is left to the fallback — which, for a NaN off the diagonal,
/// fails with [`LinalgError::DidNotConverge`] — instead of being substituted
/// through into `Ok` of NaNs.
pub fn symmetric_solve(a: &DenseMatrix, b: &DenseVector, tolerance: f64) -> Result<DenseVector> {
    if let Ok(chol) = Cholesky::new(a) {
        let n = chol.l().rows();
        let mut min_pivot2 = f64::INFINITY;
        let mut max_pivot2 = 0.0_f64;
        for i in 0..n {
            let p2 = chol.l().get(i, i).powi(2);
            min_pivot2 = min_pivot2.min(p2);
            max_pivot2 = max_pivot2.max(p2);
        }
        if min_pivot2 > tolerance * max_pivot2 {
            return chol.solve(b);
        }
    }
    let eig = SymmetricEigen::new(a)?;
    eig.pseudo_inverse(tolerance).matvec(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_matrix() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.5],
            vec![0.6, 1.5, 3.0],
        ])
        .unwrap()
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd_matrix();
        let chol = Cholesky::new(&a).unwrap();
        let reconstructed = chol.l.matmul(&chol.l.transpose()).unwrap();
        assert!(reconstructed.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn cholesky_solve_matches_direct() {
        let a = spd_matrix();
        let b = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        let rect = DenseMatrix::zeros(2, 3);
        assert!(Cholesky::new(&rect).is_err());
    }

    #[test]
    fn lu_solve_and_determinant() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 1.0],
            vec![4.0, -6.0, 0.0],
            vec![-2.0, 7.0, 2.0],
        ])
        .unwrap();
        let lu = Lu::new(&a).unwrap();
        // |det A| = 16 is the product of U's pivots.
        let pivots: f64 = (0..3).map(|i| lu.lu.get(i, i)).product();
        assert!((pivots.abs() - 16.0).abs() < 1e-9);

        let b = DenseVector::from_vec(vec![5.0, -2.0, 9.0]);
        let x = lu.solve(&b).unwrap();
        let ax = a.matvec(&x).unwrap();
        for i in 0..3 {
            assert!((ax[i] - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn lu_inverse_is_inverse() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&DenseMatrix::identity(2)).unwrap() < 1e-10);
    }

    #[test]
    fn lu_rejects_singular() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn eigen_recovers_known_values() {
        // Diagonal matrix: eigenvalues are the diagonal.
        let a = DenseMatrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.values()[0] - 3.0).abs() < 1e-10);
        assert!((eig.values()[1] - 2.0).abs() < 1e-10);
        assert!((eig.values()[2] - 1.0).abs() < 1e-10);
        assert!((eig.condition_number() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn eigen_reconstruction() {
        let a = spd_matrix();
        let eig = SymmetricEigen::new(&a).unwrap();
        // Reconstruct V diag(λ) Vᵀ.
        let n = 3;
        let mut recon = DenseMatrix::zeros(n, n);
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    recon.add_to(
                        i,
                        j,
                        eig.values()[k] * eig.vectors().get(i, k) * eig.vectors().get(j, k),
                    );
                }
            }
        }
        assert!(recon.max_abs_diff(&a).unwrap() < 1e-9);
    }

    #[test]
    fn pseudo_inverse_inverts_full_rank() {
        let a = spd_matrix();
        let eig = SymmetricEigen::new(&a).unwrap();
        let (pinv, cond) = (eig.pseudo_inverse(1e-10), eig.condition_number());
        let prod = a.matmul(&pinv).unwrap();
        assert!(prod.max_abs_diff(&DenseMatrix::identity(3)).unwrap() < 1e-8);
        assert!(cond.is_finite());
        assert!(cond >= 1.0);
    }

    #[test]
    fn pseudo_inverse_handles_rank_deficiency() {
        // Rank-1 matrix v vᵀ with v = [1, 2].
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.condition_number(), f64::INFINITY);
        let pinv = eig.pseudo_inverse(1e-10);
        // A A⁺ A = A is the defining Moore–Penrose property.
        let prod = a.matmul(&pinv).unwrap().matmul(&a).unwrap();
        assert!(prod.max_abs_diff(&a).unwrap() < 1e-8);
    }

    #[test]
    fn eigen_rejects_bad_shapes() {
        assert!(SymmetricEigen::new(&DenseMatrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&DenseMatrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn eigen_handles_one_by_one_and_zero_matrix() {
        let a = DenseMatrix::from_rows(&[vec![-7.5]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.values(), &[-7.5]);
        assert!((eig.vectors().get(0, 0).abs() - 1.0).abs() < 1e-15);

        let zero = DenseMatrix::zeros(4, 4);
        let eig = SymmetricEigen::new(&zero).unwrap();
        assert!(eig.values().iter().all(|&v| v == 0.0));
        assert_eq!(eig.condition_number(), f64::INFINITY);
    }

    /// Deterministic pseudo-random symmetric matrix (no RNG dependency).
    fn pseudo_random_symmetric(n: usize, seed: u64) -> DenseMatrix {
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next() * 4.0;
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        a
    }

    #[test]
    fn eigen_reconstructs_random_matrices_with_orthonormal_vectors() {
        for (n, seed) in [(2, 1u64), (5, 2), (11, 3), (24, 4)] {
            let a = pseudo_random_symmetric(n, seed);
            let eig = SymmetricEigen::new(&a).unwrap();
            // Descending order.
            for w in eig.values().windows(2) {
                assert!(w[0] >= w[1], "values out of order for n={n}");
            }
            // V diag(λ) Vᵀ ≈ A and VᵀV ≈ I.
            let v = eig.vectors();
            let mut recon = DenseMatrix::zeros(n, n);
            let mut gram = DenseMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    let mut r = 0.0;
                    let mut g = 0.0;
                    for k in 0..n {
                        r += eig.values()[k] * v.get(i, k) * v.get(j, k);
                        g += v.get(k, i) * v.get(k, j);
                    }
                    recon.set(i, j, r);
                    gram.set(i, j, g);
                }
            }
            assert!(
                recon.max_abs_diff(&a).unwrap() < 1e-9,
                "reconstruction failed for n={n}"
            );
            assert!(
                gram.max_abs_diff(&DenseMatrix::identity(n)).unwrap() < 1e-10,
                "eigenvectors not orthonormal for n={n}"
            );
        }
    }

    /// The workspace is an allocation cache, never a state carrier: reusing
    /// one across different matrices gives bit-identical results to fresh
    /// workspaces.
    #[test]
    fn workspace_reuse_is_bit_identical() {
        let mut shared = EigenWorkspace::new();
        for (n, seed) in [(6, 9u64), (3, 10), (13, 11), (1, 12), (13, 13)] {
            let a = pseudo_random_symmetric(n, seed);
            let fresh = SymmetricEigen::new(&a).unwrap();
            let reused = SymmetricEigen::new_with(&a, &mut shared).unwrap();
            assert_eq!(fresh.values(), reused.values());
            assert_eq!(
                fresh.vectors().as_slice(),
                reused.vectors().as_slice(),
                "vectors differ for n={n}"
            );
            let ftol = fresh.pseudo_inverse(1e-10);
            let rtol = reused.pseudo_inverse(1e-10);
            assert_eq!(ftol.as_slice(), rtol.as_slice());
        }
    }

    /// Generates a random symmetric positive-definite matrix (diagonally
    /// dominant shift of [`pseudo_random_symmetric`]).
    fn pseudo_random_spd(n: usize, seed: u64) -> DenseMatrix {
        let mut a = pseudo_random_symmetric(n, seed);
        for i in 0..n {
            a.add_to(i, i, 8.0 * n as f64);
        }
        a
    }

    #[test]
    fn eigenvalues_only_path_is_bit_identical_to_full_decomposition() {
        let mut ws = EigenWorkspace::new();
        for (n, seed) in [(1usize, 3u64), (2, 4), (7, 5), (13, 6), (24, 7)] {
            let a = pseudo_random_symmetric(n, seed);
            let full = SymmetricEigen::new(&a).unwrap();
            let values = SymmetricEigen::eigenvalues_with(&a, &mut ws).unwrap();
            let full_bits: Vec<u64> = full.values().iter().map(|v| v.to_bits()).collect();
            let only_bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(full_bits, only_bits, "eigenvalues diverged for n={n}");
        }
    }

    #[test]
    fn cholesky_inverse_inverts() {
        for (n, seed) in [(1usize, 21u64), (4, 22), (11, 23)] {
            let a = pseudo_random_spd(n, seed);
            let inv = Cholesky::new(&a).unwrap().inverse();
            let product = a.matmul(&inv).unwrap();
            for i in 0..n {
                for j in 0..n {
                    let expected = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        (product.get(i, j) - expected).abs() < 1e-9,
                        "(A·A⁻¹)[{i}][{j}] = {} for n={n}",
                        product.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn symmetric_inverse_fast_path_matches_pseudo_inverse() {
        let mut ws = EigenWorkspace::new();
        for (n, seed) in [(2usize, 31u64), (6, 32), (15, 33)] {
            let a = pseudo_random_spd(n, seed);
            let eig = SymmetricEigen::new(&a).unwrap();
            let reference = eig.pseudo_inverse(1e-10);
            let (inv, condition) = symmetric_inverse_with(&a, 1e-10, &mut ws).unwrap();
            assert_eq!(condition.to_bits(), eig.condition_number().to_bits());
            assert!(inv.max_abs_diff(&reference).unwrap() < 1e-9, "n={n}");
        }
    }

    #[test]
    fn symmetric_inverse_falls_back_to_pseudo_inverse_when_singular() {
        // Rank-1: x xᵀ for x = (1, 2, 3) — singular, so the Cholesky fast
        // path must not fire and the result must equal the eigen
        // pseudo-inverse bit for bit.
        let x = [1.0, 2.0, 3.0];
        let mut a = DenseMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a.set(i, j, x[i] * x[j]);
            }
        }
        let eig = SymmetricEigen::new(&a).unwrap();
        let reference = eig.pseudo_inverse(1e-10);
        let (inv, condition) =
            symmetric_inverse_with(&a, 1e-10, &mut EigenWorkspace::new()).unwrap();
        assert!(condition.is_infinite());
        assert_eq!(inv.as_slice(), reference.as_slice());
    }

    #[test]
    fn symmetric_solve_matches_direct_solution_and_handles_singular() {
        let a = pseudo_random_spd(5, 77);
        let b = DenseVector::from_vec(vec![1.0, -2.0, 0.5, 3.0, -1.0]);
        let x = symmetric_solve(&a, &b, 1e-12).unwrap();
        let residual = a.matvec(&x).unwrap();
        for i in 0..5 {
            assert!((residual[i] - b[i]).abs() < 1e-8);
        }

        // Singular system: must take the pseudo-inverse path, not error.
        let mut s = DenseMatrix::zeros(2, 2);
        s.set(0, 0, 1.0);
        let sb = DenseVector::from_vec(vec![2.0, 0.0]);
        let sx = symmetric_solve(&s, &sb, 1e-12).unwrap();
        assert!((sx[0] - 2.0).abs() < 1e-12);
        assert!(sx[1].abs() < 1e-12);
    }
}
