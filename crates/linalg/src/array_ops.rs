//! Array operations support module.
//!
//! Table 1 of the paper lists "Array Operations" among MADlib's support
//! modules: element-wise arithmetic over `double precision[]` columns, used by
//! methods that keep model state in database arrays.  These free functions are
//! the Rust equivalent; they operate on plain slices so both the engine layer
//! (which stores rows as `Vec<f64>`) and the method layer can use them without
//! conversion.

use crate::error::{LinalgError, Result};

fn check_same_len(operation: &'static str, a: &[f64], b: &[f64]) -> Result<()> {
    if a.len() != b.len() {
        return Err(LinalgError::DimensionMismatch {
            operation,
            left: (a.len(), 1),
            right: (b.len(), 1),
        });
    }
    Ok(())
}

/// Element-wise sum `a + b`.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
pub fn array_add(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    check_same_len("array_add", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x + y).collect())
}

/// Element-wise difference `a - b`.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
pub fn array_sub(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    check_same_len("array_sub", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x - y).collect())
}

/// Element-wise product `a ⊙ b`.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
pub fn array_mult(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    check_same_len("array_mult", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x * y).collect())
}

/// Element-wise division `a / b`.  Division by zero yields `f64::INFINITY` or
/// NaN following IEEE semantics, matching PostgreSQL float8 behaviour with
/// `float8div` on array elements.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
pub fn array_div(a: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    check_same_len("array_div", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x / y).collect())
}

/// Inner product of two arrays.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
pub fn array_dot(a: &[f64], b: &[f64]) -> Result<f64> {
    check_same_len("array_dot", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| x * y).sum())
}

/// Squared Euclidean distance between two arrays.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
pub fn array_squared_distance(a: &[f64], b: &[f64]) -> Result<f64> {
    check_same_len("array_squared_distance", a, b)?;
    Ok(a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum())
}

/// Returns the index of the column of `matrix_rows` (interpreted as a matrix
/// whose *columns* are candidate vectors of length `point.len()`) closest to
/// `point` in squared Euclidean distance, along with that distance.
///
/// This mirrors MADlib's `closest_column(a, b)` UDF used by the k-means
/// implementation in Section 4.3 of the paper.  Here the candidate matrix is
/// given as a slice of column vectors.
///
/// # Errors
/// * [`LinalgError::EmptyInput`] when no candidate columns are given.
/// * [`LinalgError::DimensionMismatch`] when a column length differs from the
///   point length.
pub fn closest_column(columns: &[Vec<f64>], point: &[f64]) -> Result<(usize, f64)> {
    if columns.is_empty() {
        return Err(LinalgError::EmptyInput {
            operation: "closest_column",
        });
    }
    let mut best = (0usize, f64::INFINITY);
    for (idx, col) in columns.iter().enumerate() {
        let d = array_squared_distance(col, point)?;
        if d < best.1 {
            best = (idx, d);
        }
    }
    Ok(best)
}

/// Batched [`closest_column`]: assigns every row of a contiguous row-major
/// block of points (`xs`, `out.len()` rows of `width` values) to its nearest
/// candidate column, writing the winning index per row into `out`.
///
/// Semantically identical to calling [`closest_column`] once per row (same
/// comparison order, same strict-`<` tie-breaking), but the points arrive as
/// one dense buffer straight out of a column-major chunk, so the inner loop
/// runs over contiguous memory with no per-row `Value` unpacking.  This is
/// the k-means assignment kernel of the chunk-at-a-time execution path.
///
/// # Errors
/// * [`LinalgError::EmptyInput`] when no candidate columns are given.
/// * [`LinalgError::DimensionMismatch`] when a column length differs from
///   `width` or `xs` is not `out.len() × width`.
pub fn batch_closest_column(
    columns: &[Vec<f64>],
    xs: &[f64],
    width: usize,
    out: &mut [usize],
) -> Result<()> {
    if columns.is_empty() {
        return Err(LinalgError::EmptyInput {
            operation: "batch_closest_column",
        });
    }
    if xs.len() != out.len() * width {
        return Err(LinalgError::DimensionMismatch {
            operation: "batch_closest_column",
            left: (xs.len(), 1),
            right: (out.len() * width, 1),
        });
    }
    for col in columns {
        if col.len() != width {
            return Err(LinalgError::DimensionMismatch {
                operation: "batch_closest_column",
                left: (col.len(), 1),
                right: (width, 1),
            });
        }
    }
    crate::kernels::batch_closest_column(columns, xs, width, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(array_add(&a, &b).unwrap(), vec![5.0, 7.0, 9.0]);
        assert_eq!(array_sub(&b, &a).unwrap(), vec![3.0, 3.0, 3.0]);
        assert_eq!(array_mult(&a, &b).unwrap(), vec![4.0, 10.0, 18.0]);
        assert_eq!(array_div(&b, &a).unwrap(), vec![4.0, 2.5, 2.0]);
        assert_eq!(array_dot(&a, &b).unwrap(), 32.0);
    }

    #[test]
    fn distances() {
        let a = [0.0, 0.0];
        let b = [3.0, 4.0];
        assert_eq!(array_squared_distance(&a, &b).unwrap(), 25.0);
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(array_add(&[1.0], &[1.0, 2.0]).is_err());
        assert!(array_dot(&[1.0], &[1.0, 2.0]).is_err());
        assert!(array_squared_distance(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn closest_column_finds_nearest_centroid() {
        let centroids = vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![5.0, 5.0]];
        let (idx, dist) = closest_column(&centroids, &[6.0, 5.0]).unwrap();
        assert_eq!(idx, 2);
        assert_eq!(dist, 1.0);
        assert!(closest_column(&[], &[1.0]).is_err());
        assert!(closest_column(&[vec![1.0, 2.0]], &[1.0]).is_err());
    }

    #[test]
    fn batch_closest_column_matches_per_row() {
        let centroids = vec![vec![0.0, 0.0], vec![10.0, 10.0], vec![5.0, 5.0]];
        let points: Vec<f64> = (0..40).map(|i| (i % 13) as f64).collect(); // 20 rows × 2
        let mut batch = vec![0usize; 20];
        batch_closest_column(&centroids, &points, 2, &mut batch).unwrap();
        for (i, point) in points.chunks_exact(2).enumerate() {
            let (expected, _) = closest_column(&centroids, point).unwrap();
            assert_eq!(batch[i], expected, "row {i}");
        }
        // Error cases mirror closest_column.
        assert!(batch_closest_column(&[], &points, 2, &mut batch).is_err());
        assert!(batch_closest_column(&centroids, &points, 3, &mut batch).is_err());
        assert!(batch_closest_column(&[vec![1.0]], &points, 2, &mut [0; 20]).is_err());
    }

    #[test]
    fn division_by_zero_follows_ieee() {
        let out = array_div(&[1.0, 0.0], &[0.0, 0.0]).unwrap();
        assert!(out[0].is_infinite());
        assert!(out[1].is_nan());
    }
}
