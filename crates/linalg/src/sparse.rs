//! Run-length-encoded sparse vectors.
//!
//! The paper (Section 3.2) notes that sparse matrices are "not as well-handled
//! by standard math libraries" and that MADlib therefore implements its own
//! sparse-vector library in C using a run-length encoding scheme.  This module
//! is the Rust equivalent: a vector is stored as a sequence of `(value, run
//! length)` pairs, which compresses the long runs of identical values (most
//! commonly zeros) that appear in text / feature-vector workloads.

use crate::error::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// A run-length-encoded sparse vector of `f64`.
///
/// Consecutive equal values are stored once together with their repetition
/// count, so a vector like `[0,0,0,0,5,5,0,0]` takes three runs instead of
/// eight elements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVector {
    /// (value, run-length) pairs; run lengths are always ≥ 1.
    runs: Vec<(f64, usize)>,
    /// Total logical length.
    len: usize,
}

impl SparseVector {
    /// Creates an empty sparse vector.
    pub fn new() -> Self {
        Self {
            runs: Vec::new(),
            len: 0,
        }
    }

    /// Creates a sparse vector of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        if len == 0 {
            return Self::new();
        }
        Self {
            runs: vec![(0.0, len)],
            len,
        }
    }

    /// Builds a sparse vector by run-length encoding a dense slice.
    ///
    /// Values are compared bit-exactly (`f64::to_bits`) so that `0.0` and
    /// `-0.0` do not merge and NaN payloads are preserved.
    pub fn from_dense(values: &[f64]) -> Self {
        let mut runs: Vec<(f64, usize)> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some((last, count)) if last.to_bits() == v.to_bits() => *count += 1,
                _ => runs.push((v, 1)),
            }
        }
        Self {
            runs,
            len: values.len(),
        }
    }

    /// Logical length of the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of stored runs (the compressed size).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Element access by logical index.
    ///
    /// # Errors
    /// Returns [`LinalgError::IndexOutOfBounds`] for `index >= len`.
    pub fn get(&self, index: usize) -> Result<f64> {
        if index >= self.len {
            return Err(LinalgError::IndexOutOfBounds {
                index,
                len: self.len,
            });
        }
        let mut offset = 0;
        for &(v, count) in &self.runs {
            if index < offset + count {
                return Ok(v);
            }
            offset += count;
        }
        unreachable!("run lengths always sum to len")
    }

    /// Decompresses into a dense `Vec<f64>`.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for &(v, count) in &self.runs {
            out.extend(std::iter::repeat_n(v, count));
        }
        out
    }

    /// Appends a run of `count` copies of `value`, merging with the previous
    /// run when the values are bit-identical.
    pub fn push_run(&mut self, value: f64, count: usize) {
        if count == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((last, c)) if last.to_bits() == value.to_bits() => *c += count,
            _ => self.runs.push((value, count)),
        }
        self.len += count;
    }

    /// Dot product with another sparse vector of the same length.
    ///
    /// Runs over both encodings simultaneously, so the cost is
    /// `O(runs(self) + runs(other))` rather than `O(len)`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot(&self, other: &SparseVector) -> Result<f64> {
        if self.len != other.len {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse dot",
                left: (self.len, 1),
                right: (other.len, 1),
            });
        }
        let mut sum = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        let (mut ri, mut rj) = (0usize, 0usize); // consumed within current runs
        while i < self.runs.len() && j < other.runs.len() {
            let (va, ca) = self.runs[i];
            let (vb, cb) = other.runs[j];
            let avail_a = ca - ri;
            let avail_b = cb - rj;
            let step = avail_a.min(avail_b);
            if va != 0.0 && vb != 0.0 {
                sum += va * vb * step as f64;
            }
            ri += step;
            rj += step;
            if ri == ca {
                i += 1;
                ri = 0;
            }
            if rj == cb {
                j += 1;
                rj = 0;
            }
        }
        Ok(sum)
    }

    /// Dot product against a dense slice of the same length.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot_dense(&self, dense: &[f64]) -> Result<f64> {
        if self.len != dense.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse-dense dot",
                left: (self.len, 1),
                right: (dense.len(), 1),
            });
        }
        let mut sum = 0.0;
        let mut offset = 0;
        for &(v, count) in &self.runs {
            if v != 0.0 {
                for d in &dense[offset..offset + count] {
                    sum += v * d;
                }
            }
            offset += count;
        }
        Ok(sum)
    }

    /// Element-wise sum with another sparse vector, producing a new vector.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn add(&self, other: &SparseVector) -> Result<SparseVector> {
        if self.len != other.len {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse add",
                left: (self.len, 1),
                right: (other.len, 1),
            });
        }
        let mut out = SparseVector::new();
        let (mut i, mut j) = (0usize, 0usize);
        let (mut ri, mut rj) = (0usize, 0usize);
        while i < self.runs.len() && j < other.runs.len() {
            let (va, ca) = self.runs[i];
            let (vb, cb) = other.runs[j];
            let step = (ca - ri).min(cb - rj);
            out.push_run(va + vb, step);
            ri += step;
            rj += step;
            if ri == ca {
                i += 1;
                ri = 0;
            }
            if rj == cb {
                j += 1;
                rj = 0;
            }
        }
        Ok(out)
    }

    /// L2 norm.
    pub fn norm(&self) -> f64 {
        self.runs
            .iter()
            .map(|(v, c)| v * v * *c as f64)
            .sum::<f64>()
            .sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.runs.iter().map(|(v, c)| v * *c as f64).sum()
    }
}

impl Default for SparseVector {
    fn default() -> Self {
        Self::new()
    }
}

impl From<&[f64]> for SparseVector {
    fn from(values: &[f64]) -> Self {
        Self::from_dense(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_dense() {
        let dense = vec![0.0, 0.0, 5.0, 5.0, 5.0, 0.0, 1.0, 0.0, 0.0];
        let sv = SparseVector::from_dense(&dense);
        assert_eq!(sv.len(), dense.len());
        assert_eq!(sv.to_dense(), dense);
        assert_eq!(sv.run_count(), 5);
    }

    #[test]
    fn get_by_index() {
        let sv = SparseVector::from_dense(&[1.0, 1.0, 0.0, 3.0]);
        assert_eq!(sv.get(0).unwrap(), 1.0);
        assert_eq!(sv.get(2).unwrap(), 0.0);
        assert_eq!(sv.get(3).unwrap(), 3.0);
        assert!(sv.get(4).is_err());
    }

    #[test]
    fn sparse_dot_matches_dense_dot() {
        let a_dense = vec![0.0, 0.0, 2.0, 2.0, 0.0, 3.0];
        let b_dense = vec![1.0, 0.0, 4.0, 0.0, 0.0, 2.0];
        let a = SparseVector::from_dense(&a_dense);
        let b = SparseVector::from_dense(&b_dense);
        let expected: f64 = a_dense.iter().zip(&b_dense).map(|(x, y)| x * y).sum();
        assert!((a.dot(&b).unwrap() - expected).abs() < 1e-12);
        assert!((a.dot_dense(&b_dense).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn sparse_add_matches_dense_add() {
        let a_dense = vec![0.0, 1.0, 1.0, 0.0];
        let b_dense = vec![2.0, 2.0, 0.0, 0.0];
        let a = SparseVector::from_dense(&a_dense);
        let b = SparseVector::from_dense(&b_dense);
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.to_dense(), vec![2.0, 3.0, 1.0, 0.0]);
    }

    #[test]
    fn mismatched_lengths_error() {
        let a = SparseVector::zeros(3);
        let b = SparseVector::zeros(4);
        assert!(a.dot(&b).is_err());
        assert!(a.add(&b).is_err());
        assert!(a.dot_dense(&[0.0; 4]).is_err());
    }

    #[test]
    fn push_run_merges_adjacent() {
        let mut sv = SparseVector::new();
        sv.push_run(0.0, 3);
        sv.push_run(0.0, 2);
        sv.push_run(1.0, 1);
        sv.push_run(1.0, 0); // no-op
        assert_eq!(sv.run_count(), 2);
        assert_eq!(sv.len(), 6);
        assert_eq!(sv.to_dense(), vec![0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn norms_and_sums() {
        let sv = SparseVector::from_dense(&[3.0, 0.0, 4.0]);
        assert!((sv.norm() - 5.0).abs() < 1e-12);
        assert_eq!(sv.sum(), 7.0);
    }

    #[test]
    fn zeros_is_one_run() {
        let sv = SparseVector::zeros(1000);
        assert_eq!(sv.run_count(), 1);
        assert_eq!(sv.len(), 1000);
        assert_eq!(SparseVector::zeros(0).len(), 0);
    }
}
