//! Dense vector and matrix types.
//!
//! These are the Rust analogue of the paper's "type bridging" layer: the
//! database engine stores rows as `Vec<f64>` arrays (like PostgreSQL's
//! `double precision[]`), and the method library views them through
//! [`DenseVector`] / [`DenseMatrix`] without copying more than necessary.

use crate::error::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, owned vector of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseVector {
    data: Vec<f64>,
}

impl DenseVector {
    /// Creates a vector from raw data.
    pub fn from_vec(data: Vec<f64>) -> Self {
        Self { data }
    }

    /// Creates a zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Creates a vector filled with the given value.
    pub fn filled(len: usize, value: f64) -> Self {
        Self {
            data: vec![value; len],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the underlying slice mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the vector and return its data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn dot(&self, other: &DenseVector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "dot",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Squared Euclidean distance to another vector of the same length.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn squared_distance(&self, other: &DenseVector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "squared_distance",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum())
    }

    /// Element-wise in-place addition: `self += other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn add_assign(&mut self, other: &DenseVector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "add_assign",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place AXPY: `self += alpha * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &DenseVector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "axpy",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scale every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns a new vector equal to `self - other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if lengths differ.
    pub fn sub(&self, other: &DenseVector) -> Result<DenseVector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "sub",
                left: (self.len(), 1),
                right: (other.len(), 1),
            });
        }
        Ok(DenseVector::from_vec(
            self.data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        ))
    }

    /// Returns true if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Arithmetic mean of the elements; `None` for an empty vector.
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.data.iter().sum::<f64>() / self.data.len() as f64)
        }
    }
}

impl Index<usize> for DenseVector {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for DenseVector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

impl From<Vec<f64>> for DenseVector {
    fn from(data: Vec<f64>) -> Self {
        Self::from_vec(data)
    }
}

impl fmt::Display for DenseVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, "]")
    }
}

/// A dense, row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "from_row_major",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix whose rows are the provided vectors.
    ///
    /// # Errors
    /// Returns [`LinalgError::EmptyInput`] for no rows, and
    /// [`LinalgError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::EmptyInput {
                operation: "from_rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    operation: "from_rows",
                    left: (1, cols),
                    right: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow the underlying row-major storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Adds `value` to the element at (row, col).
    #[inline]
    pub fn add_to(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] += value;
    }

    /// Returns a copy of row `row` as a [`DenseVector`].
    pub fn row(&self, row: usize) -> DenseVector {
        let start = row * self.cols;
        DenseVector::from_vec(self.data[start..start + self.cols].to_vec())
    }

    /// Borrow row `row` as a slice.
    pub fn row_slice(&self, row: usize) -> &[f64] {
        let start = row * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Borrow row `row` mutably as a slice.
    pub fn row_slice_mut(&mut self, row: usize) -> &mut [f64] {
        let start = row * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Returns a copy of column `col` as a [`DenseVector`].
    pub fn column(&self, col: usize) -> DenseVector {
        DenseVector::from_vec((0..self.rows).map(|r| self.get(r, col)).collect())
    }

    /// Overwrites the contents of row `row`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if the slice length differs
    /// from the number of columns.
    pub fn set_row(&mut self, row: usize, values: &[f64]) -> Result<()> {
        if values.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "set_row",
                left: (1, self.cols),
                right: (1, values.len()),
            });
        }
        self.row_slice_mut(row).copy_from_slice(values);
        Ok(())
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &DenseVector) -> Result<DenseVector> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "matvec",
                left: (self.rows, self.cols),
                right: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let row = self.row_slice(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.as_slice()) {
                acc += a * b;
            }
            *slot = acc;
        }
        Ok(DenseVector::from_vec(out))
    }

    /// Matrix–matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matmul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        crate::kernels::gemm_acc(&mut out, self, other);
        Ok(out)
    }

    /// Element-wise in-place addition `self += other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] for differing shapes.
    pub fn add_assign(&mut self, other: &DenseMatrix) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix add_assign",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Scale every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Maximum absolute difference between corresponding elements.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] for differing shapes.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "max_abs_diff",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max))
    }

    /// Copies the strictly-lower triangle into the strictly-upper triangle,
    /// producing a symmetric matrix.  Used by the "compute only the lower
    /// triangle of `XᵀX`" optimization (paper Listing 1).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square matrices.
    pub fn symmetrize_from_lower(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let v = self.get(j, i);
                self.set(i, j, v);
            }
        }
        Ok(())
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_basic_ops() {
        let a = DenseVector::from_vec(vec![1.0, 2.0, 3.0]);
        let b = DenseVector::from_vec(vec![4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!((a.norm() - 14.0_f64.sqrt()).abs() < 1e-12);
        assert_eq!(a.squared_distance(&b).unwrap(), 27.0);
        assert_eq!(a.mean(), Some(2.0));
    }

    #[test]
    fn vector_dimension_mismatch() {
        let a = DenseVector::zeros(3);
        let b = DenseVector::zeros(4);
        assert!(a.dot(&b).is_err());
        assert!(a.squared_distance(&b).is_err());
        let mut a = a;
        assert!(a.add_assign(&b).is_err());
        assert!(a.axpy(2.0, &b).is_err());
        assert!(a.sub(&b).is_err());
    }

    #[test]
    fn vector_axpy_and_scale() {
        let mut a = DenseVector::from_vec(vec![1.0, 1.0]);
        let b = DenseVector::from_vec(vec![2.0, 3.0]);
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[5.0, 7.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[2.5, 3.5]);
    }

    #[test]
    fn vector_display_and_index() {
        let mut a = DenseVector::from_vec(vec![1.0, 2.0]);
        a[1] = 9.0;
        assert_eq!(a[1], 9.0);
        assert!(a.to_string().starts_with('['));
        assert!(a.is_finite());
        a[0] = f64::NAN;
        assert!(!a.is_finite());
    }

    #[test]
    fn matrix_construction_and_access() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0).as_slice(), &[1.0, 2.0]);
        assert_eq!(m.column(1).as_slice(), &[2.0, 4.0]);
        let id = DenseMatrix::identity(3);
        assert_eq!(id.get(2, 2), 1.0);
        assert_eq!(id.get(0, 2), 0.0);
    }

    #[test]
    fn matrix_ragged_rows_rejected() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(DenseMatrix::from_rows(&[]).is_err());
        assert!(DenseMatrix::from_row_major(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn matrix_multiplication() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);

        let x = DenseVector::from_vec(vec![1.0, 1.0]);
        let y = a.matvec(&x).unwrap();
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn matrix_mismatch_errors() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
        assert!(a.matvec(&DenseVector::zeros(2)).is_err());
        let mut a2 = DenseMatrix::zeros(2, 2);
        assert!(a2.add_assign(&b).is_err());
        assert!(a.max_abs_diff(&DenseMatrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matrix_transpose_roundtrip() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn symmetrize_from_lower_works() {
        let mut m = DenseMatrix::zeros(3, 3);
        m.set(1, 0, 2.0);
        m.set(2, 0, 3.0);
        m.set(2, 1, 4.0);
        m.symmetrize_from_lower().unwrap();
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 2), 4.0);

        let mut rect = DenseMatrix::zeros(2, 3);
        assert!(rect.symmetrize_from_lower().is_err());
    }

    #[test]
    fn frobenius_and_scale() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        m.scale(2.0);
        assert_eq!(m.get(1, 1), 8.0);
    }
}
