//! Centroid seeding strategies for k-means.
//!
//! The paper's Section 4.3 describes the seeding phase as step (1) of Lloyd's
//! algorithm; MADlib offers both random seeding and the k-means++ strategy of
//! Arthur & Vassilvitskii (the paper cites it as reference \[5\]).
//!
//! Seeding never holds the points.  It is written once, over a crate-private
//! `PointSource`: something that can say how many points there are, hand out
//! the one at a scan position, and compute every point's squared distance to
//! a center.  k-means++ keeps a single `f64` per point — its distance to the
//! nearest seed chosen so far — and per further seed asks the source for one
//! distance pass (`k − 1` in all), draws one number and walks the distances'
//! prefix sums serially (`n` additions).  [`seed_centroids`] runs it over a
//! slice; `KMeans::fit` runs the same body over the table's chunks, where
//! each distance pass is a parallel `batch_squared_distances` scan — the two
//! agree bit for bit because that kernel is the slice's sequential sum,
//! batched.

use crate::error::{MethodError, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How initial centroids are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedingMethod {
    /// Choose `k` distinct input points uniformly at random.
    Random,
    /// k-means++: choose points with probability proportional to their
    /// squared distance from the nearest already-chosen centroid.
    KMeansPlusPlus,
}

/// What seeding asks of a collection of points held in a fixed (scan) order.
pub(crate) trait PointSource {
    /// Number of points.
    fn len(&self) -> usize;
    /// The point at scan position `index < len()`.
    fn point(&self, index: usize) -> Result<Vec<f64>>;
    /// Every point's squared Euclidean distance to `center`, in scan order,
    /// each summed left to right.
    fn squared_distances(&self, center: &[f64]) -> Result<Vec<f64>>;
}

impl PointSource for [Vec<f64>] {
    fn len(&self) -> usize {
        <[Vec<f64>]>::len(self)
    }

    fn point(&self, index: usize) -> Result<Vec<f64>> {
        Ok(self[index].clone())
    }

    fn squared_distances(&self, center: &[f64]) -> Result<Vec<f64>> {
        Ok(self
            .iter()
            .map(|p| p.iter().zip(center).map(|(x, c)| (x - c) * (x - c)).sum())
            .collect())
    }
}

/// Selects `k` initial centroids from `points` using the given method.
///
/// # Errors
/// Returns [`MethodError::InvalidParameter`] when `k` is zero or larger than
/// the number of points.  k-means++ samples in proportion to the distances'
/// total, so a total that is not finite — a NaN or infinite coordinate, or
/// finite coordinates whose squared distances overflow — is
/// [`MethodError::InvalidInput`]: there is no distribution to draw from.
pub fn seed_centroids(
    points: &[Vec<f64>],
    k: usize,
    method: SeedingMethod,
    seed: u64,
) -> Result<Vec<Vec<f64>>> {
    seed_from(points, k, method, seed)
}

/// [`seed_centroids`] over any [`PointSource`].
///
/// # Errors
/// As [`seed_centroids`], plus whatever the source's accessors return.
pub(crate) fn seed_from<P: PointSource + ?Sized>(
    points: &P,
    k: usize,
    method: SeedingMethod,
    seed: u64,
) -> Result<Vec<Vec<f64>>> {
    let n = points.len();
    if k == 0 {
        return Err(MethodError::invalid_parameter("k", "must be positive"));
    }
    if k > n {
        return Err(MethodError::invalid_parameter(
            "k",
            format!("cannot exceed the number of points ({n})"),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    match method {
        SeedingMethod::Random => {
            // Reservoir-free sampling of k distinct indices.
            let mut chosen: Vec<usize> = Vec::with_capacity(k);
            while chosen.len() < k {
                let idx = rng.gen_range(0..n);
                if !chosen.contains(&idx) {
                    chosen.push(idx);
                }
            }
            chosen.into_iter().map(|i| points.point(i)).collect()
        }
        SeedingMethod::KMeansPlusPlus => {
            let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
            centroids.push(points.point(rng.gen_range(0..n))?);
            // Each point's squared distance to its nearest centroid so far.
            let mut distances = vec![f64::INFINITY; n];
            while centroids.len() < k {
                let newest = &centroids[centroids.len() - 1];
                for (d, nd) in distances.iter_mut().zip(points.squared_distances(newest)?) {
                    if nd < *d {
                        *d = nd;
                    }
                }
                let total: f64 = distances.iter().sum();
                if !total.is_finite() {
                    return Err(non_finite_points("k-means++ seeding"));
                }
                let next_idx = if total <= 0.0 {
                    // All remaining points coincide with a centroid; pick any.
                    rng.gen_range(0..n)
                } else {
                    let mut target = rng.gen_range(0.0..total);
                    let mut idx = 0;
                    for (i, d) in distances.iter().enumerate() {
                        if target < *d {
                            idx = i;
                            break;
                        }
                        target -= d;
                        idx = i;
                    }
                    idx
                };
                centroids.push(points.point(next_idx)?);
            }
            Ok(centroids)
        }
    }
}

/// The error for points holding a NaN or infinite coordinate, or whose
/// squared distances overflow — k-means++ seeding and `KMeans::fit` raise the
/// same one, prefixed by `stage`.
pub(crate) fn non_finite_points(stage: &str) -> MethodError {
    MethodError::invalid_input(format!(
        "{stage}: the points hold a non-finite coordinate (or their squared distances overflow)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Vec<Vec<f64>> {
        let mut points = Vec::new();
        for cx in [0.0, 100.0, 200.0] {
            for i in 0..20 {
                points.push(vec![cx + (i % 5) as f64 * 0.1, cx + (i / 5) as f64 * 0.1]);
            }
        }
        points
    }

    #[test]
    fn produces_k_centroids_from_input_points() {
        let points = grid_points();
        for method in [SeedingMethod::Random, SeedingMethod::KMeansPlusPlus] {
            let centroids = seed_centroids(&points, 3, method, 42).unwrap();
            assert_eq!(centroids.len(), 3);
            for c in &centroids {
                assert!(points.contains(c), "centroid must be one of the inputs");
            }
        }
    }

    #[test]
    fn kmeans_plus_plus_spreads_centroids() {
        let points = grid_points();
        let centroids = seed_centroids(&points, 3, SeedingMethod::KMeansPlusPlus, 1).unwrap();
        // With three well-separated clumps, k-means++ should pick one point
        // from each clump (each clump spans < 1 unit, clumps are 100 apart).
        let mut clumps: Vec<usize> = centroids
            .iter()
            .map(|c| (c[0] / 100.0).round() as usize)
            .collect();
        clumps.sort_unstable();
        clumps.dedup();
        assert_eq!(clumps.len(), 3, "expected one centroid per clump");
    }

    #[test]
    fn deterministic_for_a_seed() {
        let points = grid_points();
        let a = seed_centroids(&points, 4, SeedingMethod::Random, 9).unwrap();
        let b = seed_centroids(&points, 4, SeedingMethod::Random, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_k() {
        let points = grid_points();
        assert!(seed_centroids(&points, 0, SeedingMethod::Random, 0).is_err());
        assert!(seed_centroids(&points, points.len() + 1, SeedingMethod::Random, 0).is_err());
    }

    #[test]
    fn handles_duplicate_points() {
        let points = vec![vec![1.0, 1.0]; 10];
        let centroids = seed_centroids(&points, 3, SeedingMethod::KMeansPlusPlus, 5).unwrap();
        assert_eq!(centroids.len(), 3);
    }

    /// A coordinate k-means++ cannot weigh is a typed error, not a panic in
    /// `gen_range(0.0..NaN)` nor seeds drawn from an infinite total.
    #[test]
    fn non_finite_points_are_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
            let mut points = grid_points();
            points[7][1] = bad;
            // Whichever point is drawn first, the second seed needs a total.
            for seed in 0..8 {
                let err =
                    seed_centroids(&points, 3, SeedingMethod::KMeansPlusPlus, seed).unwrap_err();
                assert!(
                    matches!(&err, MethodError::InvalidInput { message } if message.contains("non-finite")),
                    "coordinate {bad}: {err:?}"
                );
            }
            // Random seeding measures nothing, and one seed needs no total.
            assert!(seed_centroids(&points, 3, SeedingMethod::Random, 0).is_ok());
            assert!(seed_centroids(&points, 1, SeedingMethod::KMeansPlusPlus, 0).is_ok());
        }
    }
}
