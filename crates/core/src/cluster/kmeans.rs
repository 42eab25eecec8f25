//! k-means clustering (paper Section 4.3).
//!
//! The paper uses k-means as its example of *large-state iteration*: the
//! inter-iteration state is the set of `k` centroids, the intra-iteration
//! state is the running barycenter accumulation, and each Lloyd iteration is
//! one user-defined aggregate pass driven by a driver function.  This module
//! reproduces exactly that structure:
//!
//! * the per-iteration pass is `KMeansStep`, a UDA whose transition function
//!   assigns each point to its closest centroid (the `closest_column` UDF of
//!   the paper) and accumulates per-centroid sums and counts;
//! * the outer loop is the [`Iterative`] driver, whose state is the
//!   centroids and the reassignment count of the pass that produced them;
//! * convergence is declared when no (or few) points change assignment, which
//!   the step tracks by also counting reassignments against the previous
//!   centroids.
//!
//! A fit therefore costs what its `closest_column` passes cost: every step
//! that touches all `n · d` coordinates is a chunk scan on the batched
//! kernels, parallel over the table's chunks, and the points are never
//! copied out of the table.  `TablePoints` is that view of the input — one
//! validation pass over offsets and NULL bitmaps, then `k − 1` seeding
//! passes of `batch_squared_distances` (the k-means++ walk itself is
//! [`super::seeding`]'s, which keeps one `f64` per point), the Lloyd passes,
//! and one inertia pass of `batch_closest_column_distances` whose per-point
//! minima are summed serially in scan order.  All of it is bit-identical to
//! seeding a materialized `Vec` of the points and calling `closest_column`
//! per row, which `tests/chunk_equivalence.rs` holds it to.

use crate::cluster::seeding::{non_finite_points, seed_from, PointSource, SeedingMethod};
use crate::error::{MethodError, Result};
use crate::train::{Iterated, Iterative};
use madlib_engine::aggregate::transition_chunk_by_rows;
use madlib_engine::chunk::DoubleArrayColumn;
use madlib_engine::dataset::Dataset;
use madlib_engine::{Aggregate, Row, RowChunk, Schema, Value};
use madlib_linalg::array_ops::{batch_closest_column, closest_column};
use madlib_linalg::kernels::{batch_closest_column_distances, batch_squared_distances};
use serde::{Deserialize, Serialize};

/// A fitted k-means model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansModel {
    /// Final centroid positions.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances of every point to its closest centroid.
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
    /// Whether the reassignment-fraction convergence criterion was met.
    pub converged: bool,
    /// Number of points clustered.
    pub num_points: usize,
}

impl KMeansModel {
    /// Index of the centroid closest to `point`.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on a dimension mismatch.
    pub fn assign(&self, point: &[f64]) -> Result<usize> {
        let (idx, _) = closest_column(&self.centroids, point)?;
        Ok(idx)
    }

    /// Predicted cluster index for `point` — closest-centroid assignment,
    /// the serving-side name for [`KMeansModel::assign`] (every other major
    /// model exposes `predict`; k-means now does too).
    ///
    /// # Errors
    /// Returns a dimension-mismatch error when `point`'s width differs from
    /// the centroids'.
    pub fn predict(&self, point: &[f64]) -> Result<usize> {
        self.assign(point)
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

/// Configuration and driver for Lloyd's algorithm.
///
/// # Non-finite input
/// A point with a NaN or ±∞ coordinate is [`MethodError::InvalidInput`]
/// however the fit starts: k-means++ refuses it while seeding; `Random`
/// seeding and a warm start ([`KMeans::with_initial_centroids`], and so
/// [`crate::IncrementalEstimator::refresh`]) measure no distance before Lloyd, and
/// the fit refuses their result after its inertia pass when the inertia or a
/// centroid coordinate is not finite.  Finite coordinates whose squared
/// distances overflow (say `1e200`) are refused by k-means++; the other
/// starts fit them when every overflowing point ends up alone in its
/// cluster, as an isolated outlier does, and refuse them otherwise.
#[derive(Debug, Clone)]
pub struct KMeans {
    coords_column: String,
    k: usize,
    max_iterations: usize,
    /// Stop when the fraction of points changing assignment falls below this.
    reassignment_fraction: f64,
    seeding: SeedingMethod,
    seed: u64,
    initial_centroids: Option<Vec<Vec<f64>>>,
}

impl KMeans {
    /// Creates a k-means driver reading points from `coords_column`.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidParameter`] when `k == 0`.
    pub fn new(coords_column: impl Into<String>, k: usize) -> Result<Self> {
        if k == 0 {
            return Err(MethodError::invalid_parameter("k", "must be positive"));
        }
        Ok(Self {
            coords_column: coords_column.into(),
            k,
            max_iterations: 50,
            reassignment_fraction: 0.001,
            seeding: SeedingMethod::KMeansPlusPlus,
            seed: 0,
            initial_centroids: None,
        })
    }

    /// Sets the iteration cap.
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the convergence threshold on the fraction of reassigned points.
    pub fn with_reassignment_fraction(mut self, fraction: f64) -> Self {
        self.reassignment_fraction = fraction.max(0.0);
        self
    }

    /// Selects the seeding method.
    pub fn with_seeding(mut self, seeding: SeedingMethod) -> Self {
        self.seeding = seeding;
        self
    }

    /// Sets the RNG seed used for seeding.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Warm-starts Lloyd's algorithm from `centroids` instead of running the
    /// seeding phase.  A refresh ([`crate::IncrementalEstimator::refresh`]) is the
    /// fit started this way from the cataloged model's centroids, so after a
    /// small append it settles in a few iterations.  There must be exactly
    /// `k` centroids, all of the data's dimension (checked at fit time).
    #[must_use]
    pub fn with_initial_centroids(mut self, centroids: Vec<Vec<f64>>) -> Self {
        self.initial_centroids = Some(centroids);
        self
    }
}

/// Lloyd's algorithm over the dataset's (filtered) points: the validation
/// pass and the seeding passes open the fit, then one `KMeansStep` pass per
/// iteration, each handed the centroids the previous one produced, then the
/// inertia pass.
impl Iterative for KMeans {
    type Model = KMeansModel;
    /// The centroids, and how many points the pass that produced them
    /// reassigned (no pass produced the initial ones).
    type State = (Vec<Vec<f64>>, u64);
    /// The number of points and their dimension.
    type Context = (usize, usize);
    type StepOutput = Self::State;

    fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Validates the points; the first centroids are `warm`'s when they are
    /// `k` of the points' dimension, else the estimator's initial centroids
    /// (an error when they are not), else the seeding's.
    fn initial(
        &self,
        dataset: &Dataset<'_>,
        warm: Option<&KMeansModel>,
    ) -> Result<((usize, usize), Self::State)> {
        let points = TablePoints::open(dataset, &self.coords_column, self.k)?;
        let dims = points.dims;
        let fits = |centroids: &&Vec<Vec<f64>>| {
            centroids.len() == self.k && centroids.iter().all(|c| c.len() == dims)
        };
        let centroids = match warm
            .map(|warm| &warm.centroids)
            .filter(fits)
            .or(self.initial_centroids.as_ref())
        {
            None => seed_from(&points, self.k, self.seeding, self.seed)?,
            Some(centroids) if fits(&centroids) => centroids.clone(),
            Some(_) => {
                return Err(MethodError::invalid_input(format!(
                    "initial centroids must be k={} vectors of dimension {dims}",
                    self.k
                )))
            }
        };
        Ok(((points.len, dims), (centroids, 0)))
    }

    fn step<'s>(
        &'s self,
        (centroids, _): &'s Self::State,
        _iteration: usize,
    ) -> impl Aggregate<Output = Self::State> + 's {
        KMeansStep {
            coords_column: &self.coords_column,
            centroids,
        }
    }

    fn next(&self, _: &Self::State, next: Self::State) -> Result<Self::State> {
        Ok(next)
    }

    fn converged(&self, &(len, _): &(usize, usize), _: &Self::State, next: &Self::State) -> bool {
        next.1 as f64 <= (self.reassignment_fraction * len as f64).ceil()
    }

    /// The inertia pass: per-point minima from one more chunk scan, summed
    /// serially in scan order.
    fn model(
        &self,
        dataset: &Dataset<'_>,
        (len, dims): (usize, usize),
        outcome: Iterated<Self::State>,
    ) -> Result<KMeansModel> {
        let points = TablePoints {
            dataset,
            column: &self.coords_column,
            len,
            dims,
        };
        let (centroids, _) = outcome.state;
        let inertia: f64 = points.closest_distances(&centroids)?.iter().sum();
        // k-means++ refuses such points while seeding; `Random` seeding and a
        // warm start look at no distance before Lloyd, so they stop here.
        if !inertia.is_finite() || centroids.iter().flatten().any(|c| !c.is_finite()) {
            return Err(non_finite_points("k-means"));
        }
        Ok(KMeansModel {
            centroids,
            inertia,
            iterations: outcome.iterations,
            converged: outcome.converged,
            num_points: len,
        })
    }
}

crate::iterative_estimator!(KMeans);

/// The dataset's (filtered) points as the fit reads them: in place, a chunk at
/// a time, through the batched kernels.
struct TablePoints<'a> {
    dataset: &'a Dataset<'a>,
    column: &'a str,
    len: usize,
    dims: usize,
}

impl<'a> TablePoints<'a> {
    /// Validates the input without reading a coordinate — one pass over the
    /// chunks' offset tables and NULL bitmaps — so that every later pass may
    /// hand a chunk's flat buffer to a kernel as `rows × dims`.
    ///
    /// # Errors
    /// A NULL point or a non-array column is the engine's `TypeMismatch`,
    /// fewer than `k` points [`MethodError::InvalidParameter`], points of
    /// differing widths or of no width [`MethodError::InvalidInput`] —
    /// checked in that order.
    fn open(dataset: &'a Dataset<'a>, column: &'a str, k: usize) -> Result<Self> {
        let shapes: Vec<(usize, Option<usize>)> = dataset.map_chunks(|chunk, schema| {
            let points = chunk_points(chunk, schema, column)?;
            Ok(vec![(chunk.len(), points.uniform_width())])
        })?;
        let len = shapes.iter().map(|(rows, _)| rows).sum();
        if len < k {
            return Err(MethodError::invalid_parameter(
                "k",
                format!("need at least k={k} points, found {len}"),
            ));
        }
        // `k > 0`, so there is a first chunk; the scan passes no empty ones,
        // so a chunk without a uniform width is a ragged one.
        match shapes[0].1 {
            Some(0) => Err(MethodError::invalid_input("points have no coordinates")),
            Some(dims) if shapes.iter().all(|&(_, width)| width == Some(dims)) => Ok(Self {
                dataset,
                column,
                len,
                dims,
            }),
            _ => Err(MethodError::invalid_input(
                "inconsistent point dimensions across rows",
            )),
        }
    }

    /// One order-preserving parallel scan computing an `f64` per point:
    /// `kernel` fills one output per row of each chunk's flat `rows × dims`
    /// buffer, and the outputs concatenate in scan order.
    fn per_point(&self, kernel: impl Fn(&[f64], &mut [f64]) + Sync) -> Result<Vec<f64>> {
        Ok(self.dataset.map_chunks(|chunk, schema| {
            let mut out = vec![0.0; chunk.len()];
            kernel(
                chunk_points(chunk, schema, self.column)?.flat_values(),
                &mut out,
            );
            Ok(out)
        })?)
    }

    /// Every point's squared distance to its closest centroid (all of them
    /// `dims` wide), in scan order — per row what `closest_column` returns.
    fn closest_distances(&self, centroids: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.per_point(|xs, out| {
            let mut assignments = vec![0; out.len()];
            batch_closest_column_distances(centroids, xs, self.dims, &mut assignments, out);
        })
    }
}

impl PointSource for TablePoints<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn point(&self, index: usize) -> Result<Vec<f64>> {
        let row = self
            .dataset
            .nth_row(index)?
            .ok_or_else(|| MethodError::invalid_input(format!("no point at position {index}")))?;
        Ok(row
            .get_named(self.dataset.schema(), self.column)?
            .as_double_array()?
            .to_vec())
    }

    fn squared_distances(&self, center: &[f64]) -> Result<Vec<f64>> {
        self.per_point(|xs, out| batch_squared_distances(xs, center, out))
    }
}

/// The chunk's points as a NULL-free `double precision[]` column, or the
/// error the per-row accessors (`get_named` + `as_double_array`) give.
fn chunk_points<'c>(
    chunk: &'c RowChunk,
    schema: &Schema,
    column: &str,
) -> madlib_engine::Result<DoubleArrayColumn<'c>> {
    let points = chunk.double_arrays(schema.index_of(column)?)?;
    if points.nulls().any_null() {
        Value::Null.as_double_array()?;
    }
    Ok(points)
}

/// One Lloyd iteration as a UDA.  The *inter*-iteration state (previous
/// centroids) is carried in the aggregate definition itself; the *intra*-
/// iteration state (sums/counts) is the transition state —
/// matching the paper's description of which state the transition function
/// may modify.
#[derive(Debug, Clone)]
struct KMeansStep<'a> {
    coords_column: &'a str,
    centroids: &'a [Vec<f64>],
}

#[derive(Debug, Clone)]
struct KMeansIntraState {
    sums: Vec<Vec<f64>>,
    counts: Vec<u64>,
}

impl Aggregate for KMeansStep<'_> {
    type State = KMeansIntraState;
    /// The new centroids and the pass's reassignment count.
    type Output = (Vec<Vec<f64>>, u64);

    fn initial_state(&self) -> KMeansIntraState {
        let dims = self.centroids.first().map(Vec::len).unwrap_or(0);
        KMeansIntraState {
            sums: vec![vec![0.0; dims]; self.centroids.len()],
            counts: vec![0; self.centroids.len()],
        }
    }

    fn transition(
        &self,
        state: &mut KMeansIntraState,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let point = row
            .get_named(schema, self.coords_column)?
            .as_double_array()?;
        let (closest, _) =
            closest_column(self.centroids, point).map_err(madlib_engine::EngineError::aggregate)?;
        for (s, p) in state.sums[closest].iter_mut().zip(point) {
            *s += p;
        }
        state.counts[closest] += 1;
        Ok(())
    }

    /// Chunk-at-a-time Lloyd assignment: the chunk's points arrive as one
    /// contiguous row-major block, so every distance computation of the
    /// `closest_column` UDF runs over dense memory with no per-row `Value`
    /// unpacking.  Assignment comparisons and barycenter accumulation happen
    /// in the same order as the per-row path, so the step result is
    /// bit-identical.  Chunks with NULLs, a non-array column, ragged widths
    /// or a width other than the centroids' fall back to per-row transitions
    /// (reproducing per-row errors).
    fn transition_chunk(
        &self,
        state: &mut KMeansIntraState,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let idx = schema.index_of(self.coords_column)?;
        let points = match chunk.double_arrays(idx) {
            Ok(p) if !p.nulls().any_null() => p,
            _ => return transition_chunk_by_rows(self, state, chunk, schema),
        };
        let dims = self.centroids.first().map(Vec::len);
        let Some(width) = points.uniform_width().filter(|&w| Some(w) == dims) else {
            return transition_chunk_by_rows(self, state, chunk, schema);
        };
        let mut assignments = vec![0usize; chunk.len()];
        batch_closest_column(
            self.centroids,
            points.flat_values(),
            width,
            &mut assignments,
        )
        .map_err(madlib_engine::EngineError::aggregate)?;
        for (r, &closest) in assignments.iter().enumerate() {
            let point = points.row(r);
            for (s, p) in state.sums[closest].iter_mut().zip(point) {
                *s += p;
            }
            state.counts[closest] += 1;
        }
        Ok(())
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![self.coords_column])
    }

    fn merge(&self, mut left: KMeansIntraState, right: KMeansIntraState) -> KMeansIntraState {
        for (ls, rs) in left.sums.iter_mut().zip(&right.sums) {
            for (a, b) in ls.iter_mut().zip(rs) {
                *a += b;
            }
        }
        for (lc, rc) in left.counts.iter_mut().zip(&right.counts) {
            *lc += rc;
        }
        left
    }

    /// New centroid positions are the barycenters of the assigned points;
    /// empty clusters keep their previous centroid (the standard Lloyd
    /// fix-up).  The reassignment count is how many points are assigned to a
    /// centroid that moves by more than a tiny amount this iteration.
    fn finalize(&self, state: KMeansIntraState) -> madlib_engine::Result<(Vec<Vec<f64>>, u64)> {
        let mut reassignments = 0u64;
        let centroids = state
            .sums
            .iter()
            .zip(&state.counts)
            .zip(self.centroids)
            .map(|((sum, &count), prev)| {
                if count == 0 {
                    return prev.clone();
                }
                let new: Vec<f64> = sum.iter().map(|s| s / count as f64).collect();
                let movement: f64 = new.iter().zip(prev).map(|(n, p)| (n - p) * (n - p)).sum();
                if movement.sqrt() > 1e-9 {
                    reassignments += count;
                }
                new
            })
            .collect();
        Ok((centroids, reassignments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::gaussian_blobs;
    use crate::test_support::{assert_chunk_path_is_row_fallback, assert_input_columns_suffice};
    use crate::train::{Estimator, IncrementalEstimator, Session};
    use madlib_engine::expr::Predicate;
    use madlib_engine::{Column, ColumnType, EngineError, Table};
    use proptest::prelude::*;

    fn fit(k: usize, data: &Table, seed: u64) -> KMeansModel {
        KMeans::new("coords", k)
            .unwrap()
            .with_seed(seed)
            .fit(&Dataset::from_table(data))
            .unwrap()
    }

    #[test]
    fn lloyd_step_declares_every_column_it_reads() {
        let centroids = [vec![0.0, 0.0], vec![1.0, -1.0], vec![-0.5, 1.5]];
        assert_input_columns_suffice(&KMeansStep {
            coords_column: "x",
            centroids: &centroids,
        });
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let data = gaussian_blobs(300, 3, 2, 0.5, 4, 11).unwrap();
        let model = fit(3, &data.table, 3);
        assert_eq!(model.k(), 3);
        assert_eq!(model.num_points, 300);
        assert!(model.converged);
        // Every true center should have a fitted centroid within a small
        // distance (blobs are ~25+ units apart, noise σ = 0.5).
        for truth in &data.true_centers {
            let min_dist = model
                .centroids
                .iter()
                .map(|c| {
                    c.iter()
                        .zip(truth)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .fold(f64::INFINITY, f64::min);
            assert!(min_dist < 2.0, "no centroid near true center {truth:?}");
        }
        // Inertia should be roughly rows · dims · σ² (≈ 300·2·0.25 = 150).
        assert!(model.inertia < 600.0);
    }

    #[test]
    fn assignment_agrees_with_ground_truth_partition() {
        let data = gaussian_blobs(200, 2, 3, 0.3, 2, 29).unwrap();
        let model = fit(2, &data.table, 1);
        // Points from the same generator cluster map to the same fitted
        // cluster (up to relabeling): check pairwise consistency on a sample.
        // Rows come back in segment order, so use the id column to look up
        // the ground-truth assignment made at insertion time.
        let rows = data.table.collect_rows();
        let pairs: Vec<(usize, usize)> = rows
            .iter()
            .map(|r| {
                let id = r.get(0).as_int().unwrap() as usize;
                let fitted = model.assign(r.get(1).as_double_array().unwrap()).unwrap();
                (data.assignments[id], fitted)
            })
            .collect();
        for i in (0..pairs.len()).step_by(7) {
            for j in (0..pairs.len()).step_by(13) {
                let same_truth = pairs[i].0 == pairs[j].0;
                let same_fitted = pairs[i].1 == pairs[j].1;
                assert_eq!(same_truth, same_fitted, "rows {i} and {j} disagree");
            }
        }
    }

    #[test]
    fn k_equal_one_gives_global_mean() {
        let data = gaussian_blobs(100, 1, 2, 1.0, 2, 5).unwrap();
        let model = fit(1, &data.table, 0);
        assert_eq!(model.k(), 1);
        // Centroid should be near the single true center.
        let truth = &data.true_centers[0];
        for (c, t) in model.centroids[0].iter().zip(truth) {
            assert!((c - t).abs() < 1.0);
        }
    }

    #[test]
    fn parameter_and_input_validation() {
        assert!(KMeans::new("coords", 0).is_err());
        let data = gaussian_blobs(5, 2, 2, 0.1, 1, 2).unwrap();
        // k larger than the number of points.
        assert!(KMeans::new("coords", 10)
            .unwrap()
            .fit(&Dataset::from_table(&data.table))
            .is_err());
        // Empty table.
        let empty = Table::new(crate::datasets::points_schema(), 2).unwrap();
        assert!(KMeans::new("coords", 2)
            .unwrap()
            .fit(&Dataset::from_table(&empty))
            .is_err());
    }

    #[test]
    fn random_seeding_also_converges() {
        let data = gaussian_blobs(150, 3, 2, 0.4, 3, 17).unwrap();
        let model = KMeans::new("coords", 3)
            .unwrap()
            .with_seeding(SeedingMethod::Random)
            .with_max_iterations(100)
            .with_seed(23)
            .fit(&Dataset::from_table(&data.table))
            .unwrap();
        assert_eq!(model.centroids.len(), 3);
        assert!(model.iterations >= 1);
    }

    #[test]
    fn partition_invariance_of_one_step() {
        // With fixed seeding the whole fit is deterministic and partition
        // invariant.
        let data = gaussian_blobs(120, 3, 2, 0.2, 1, 31).unwrap();
        let reference = fit(3, &data.table, 7);
        let repartitioned = data.table.repartition(6).unwrap();
        let other = fit(3, &repartitioned, 7);
        let mut a = reference.centroids.clone();
        let mut b = other.centroids.clone();
        let sort_key = |c: &Vec<f64>| (c[0] * 1e6) as i64;
        a.sort_by_key(sort_key);
        b.sort_by_key(sort_key);
        for (ca, cb) in a.iter().zip(&b) {
            for (x, y) in ca.iter().zip(cb) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    fn points_table(points: &[Value], chunk_capacity: usize) -> Table {
        let mut table = Table::new(crate::datasets::points_schema(), 2)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (i, p) in points.iter().enumerate() {
            table
                .insert(Row::new(vec![Value::Int(i as i64), p.clone()]))
                .unwrap();
        }
        table
    }

    /// An `(id, keep, coords)` table whose points are, by `kind`: NULL (0),
    /// zero-width (1), two wide (2, ragged against the rest) or three wide;
    /// `keep > 0.5` drops every third row.
    fn oracle_table(points: &[(usize, [f64; 3])], segments: usize, chunk_capacity: usize) -> Table {
        let schema = Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("keep", ColumnType::Double),
            Column::new("coords", ColumnType::DoubleArray),
        ]);
        let mut table = Table::new(schema, segments)
            .unwrap()
            .with_chunk_capacity(chunk_capacity)
            .unwrap();
        for (i, &(kind, x)) in points.iter().enumerate() {
            let coords = match kind {
                0 => Value::Null,
                1 => Value::DoubleArray(Vec::new()),
                2 => Value::DoubleArray(x[..2].to_vec()),
                _ => Value::DoubleArray(x.to_vec()),
            };
            let keep = Value::Double(f64::from(i % 3 != 0));
            table
                .insert(Row::new(vec![Value::Int(i as i64), keep, coords]))
                .unwrap();
        }
        table
    }

    fn train(estimator: &KMeans, table: &Table) -> Result<KMeansModel> {
        Session::in_memory(2)
            .unwrap()
            .train(estimator, &Dataset::from_table(table))
    }

    /// A NaN or infinite coordinate is `InvalidInput` however the fit
    /// starts.  k-means++ finds it while seeding (where a NaN used to panic
    /// inside `gen_range`); `Random` seeding, a warm start and a `refresh`
    /// (which warm-starts from the cataloged model) find it in the inertia
    /// pass, where they used to return `Ok` with a NaN or infinite centroid
    /// and an infinite inertia.
    #[test]
    fn non_finite_points_are_a_typed_error_through_train() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e200] {
            let mut points: Vec<Value> = (0..20)
                .map(|i| Value::DoubleArray(vec![i as f64, (i % 3) as f64]))
                .collect();
            let bad_point = Value::DoubleArray(vec![7.0, bad]);
            let estimator = KMeans::new("coords", 3).unwrap();
            let warm = estimator.clone().with_initial_centroids(vec![
                vec![0.0, 0.0],
                vec![9.0, 1.0],
                vec![18.0, 2.0],
            ]);

            // A refresh after the bad point arrives in an append.
            let session = Session::in_memory(2).unwrap();
            let clean = points_table(&points, 6);
            session.database().register_table("points", clean).unwrap();
            estimator
                .train_incremental(&session, "points", "model")
                .unwrap();
            let appended = Row::new(vec![Value::Int(20), bad_point.clone()]);
            session
                .database()
                .append_rows("points", vec![appended])
                .unwrap();
            let refreshed = estimator.refresh(&session, "points", "model");

            points[7] = bad_point;
            let table = points_table(&points, 6);
            let outcomes = [
                train(&estimator, &table),
                train(
                    &estimator.clone().with_seeding(SeedingMethod::Random),
                    &table,
                ),
                train(&warm, &table),
                refreshed,
            ];
            for (start, outcome) in ["k-means++", "random", "warm", "refresh"]
                .iter()
                .zip(outcomes)
            {
                let refused = matches!(
                    &outcome,
                    Err(MethodError::InvalidInput { message }) if message.contains("non-finite")
                );
                if bad.is_finite() && *start != "k-means++" {
                    // 1e200 is finite: only k-means++ squares a distance to
                    // it before Lloyd.  The other starts isolate the outlier
                    // in a cluster of its own and every number stays finite.
                    let model = outcome.unwrap();
                    assert!(model.centroids.contains(&vec![7.0, 1e200]), "{start}");
                    assert!(model.centroids.iter().flatten().all(|c| c.is_finite()));
                    assert!(model.inertia.is_finite(), "{start}");
                } else {
                    assert!(refused, "coordinate {bad}, {start}: {outcome:?}");
                }
            }
        }
    }

    /// Input the chunk scans cannot take is rejected up front with the typed
    /// errors the row-materializing fit gave, in its order: a NULL point
    /// first, then too few points, then ragged (or absent) coordinates.
    #[test]
    fn unusable_points_are_typed_errors_in_order() {
        let point = |p: &[f64]| Value::DoubleArray(p.to_vec());
        let is_type_mismatch =
            |e: &MethodError| matches!(e, MethodError::Engine(EngineError::TypeMismatch { .. }));
        let estimator = |k| KMeans::new("coords", k).unwrap();

        // Ragged within a chunk and across chunks; NULL wins over both
        // `k > n` and raggedness, `k > n` over raggedness.
        for chunk_capacity in [1, 2, 8] {
            let ragged = [point(&[1.0, 2.0]), point(&[3.0]), point(&[4.0, 5.0])];
            let err = train(&estimator(2), &points_table(&ragged, chunk_capacity)).unwrap_err();
            assert!(matches!(err, MethodError::InvalidInput { .. }), "{err:?}");
            let err = train(&estimator(9), &points_table(&ragged, chunk_capacity)).unwrap_err();
            assert!(
                matches!(err, MethodError::InvalidParameter { parameter: "k", .. }),
                "{err:?}"
            );
            let with_null = [point(&[1.0, 2.0]), Value::Null, point(&[3.0])];
            let err = train(&estimator(9), &points_table(&with_null, chunk_capacity)).unwrap_err();
            assert!(is_type_mismatch(&err), "{err:?}");
        }
        // Not an array column at all.
        let err = train(
            &KMeans::new("id", 1).unwrap(),
            &points_table(&[point(&[1.0])], 4),
        )
        .unwrap_err();
        assert!(is_type_mismatch(&err), "{err:?}");
        // Points without coordinates (used to panic in `chunks(0)`).
        let err = train(&estimator(1), &points_table(&[point(&[]), point(&[])], 4)).unwrap_err();
        assert!(matches!(err, MethodError::InvalidInput { .. }), "{err:?}");
    }

    proptest! {
        /// The Lloyd step's chunk kernel is its per-row fallback, state bit
        /// for state bit and error for error, over 1–8-row chunks holding
        /// NULL, ragged and zero-width points, filtered (compacted) or not.
        #[test]
        fn lloyd_step_chunk_path_is_its_row_fallback(
            points in prop::collection::vec((0usize..12, [-9.0..9.0f64, -9.0..9.0f64, -9.0..9.0f64]), 0..60),
            k in 1usize..4,
            (segments, chunk_capacity) in (1usize..4, 1usize..9),
        ) {
            let table = oracle_table(&points, segments, chunk_capacity);
            let centroids: Vec<Vec<f64>> =
                (0..k).map(|c| vec![3.0 * c as f64 - 3.0, 1.0, -1.0]).collect();
            let step = KMeansStep { coords_column: "coords", centroids: &centroids };
            let bits = |s: &KMeansIntraState| {
                let sums: Vec<u64> = s.sums.iter().flatten().map(|v| v.to_bits()).collect();
                (sums, s.counts.clone())
            };
            for filter in [None, Some(Predicate::column_gt("keep", 0.5))] {
                assert_chunk_path_is_row_fallback(&step, &table, filter.as_ref(), bits);
            }
        }
    }
}
