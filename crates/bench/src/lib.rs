//! # madlib-bench
//!
//! Workload generators and measurement helpers for the `repro` binary, which
//! regenerates the tables and figures of the MADlib paper's evaluation:
//!
//! * **Figure 4 / Figure 5** — linear-regression execution times swept over
//!   the number of segments, the number of independent variables, and the
//!   three inner-loop generations (v0.1alpha / v0.2.1beta / v0.3).
//! * **Table 1** — the method inventory, exercised end-to-end.
//! * **Table 2** — the models implemented on the SGD framework.
//! * **Table 3** — the statistical text-analysis methods.
//! * **§4.3 / §4.4** — the k-means large-state iteration and the per-query
//!   overhead of the aggregate machinery.
//!
//! The paper ran on a 24-core Greenplum cluster with 10 M-row tables; the
//! default sizes here are scaled down so the full reproduction runs on a
//! laptop in minutes, and the `repro` binary accepts `--full` to sweep the
//! paper's original parameter grid.
//!
//! This crate reproduces the paper; it is **not** where this repository's
//! performance is measured.  Every speed question — kernels, grouped scans,
//! scoring, ingest, durability, recovery — is answered by `madbench`
//! (`benchmark/`, contract in `BENCHMARK.json`, noise bands in
//! `benchmark/RESULTS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use madlib_core::datasets::linear_regression_data;
use madlib_core::regress::LinearRegression;
use madlib_core::train::Estimator;
use madlib_engine::{Dataset, Table};
use madlib_linalg::kernels::KernelGeneration;
use std::time::{Duration, Instant};

/// One measured cell of the Figure 4 table.
#[derive(Debug, Clone, PartialEq)]
pub struct LinregrMeasurement {
    /// Number of segments (parallel workers).
    pub segments: usize,
    /// Number of independent variables.
    pub variables: usize,
    /// Number of rows.
    pub rows: usize,
    /// Inner-loop generation measured.
    pub generation: KernelGeneration,
    /// Wall-clock execution time of the aggregate.
    pub elapsed: Duration,
}

/// Generates the dense regression table used by the Figure 4/5 experiments.
///
/// # Panics
/// Panics if generation fails (invalid sizes), which the callers never pass.
pub fn figure4_table(rows: usize, variables: usize, segments: usize, seed: u64) -> Table {
    linear_regression_data(rows, variables, 0.1, segments, seed)
        .expect("workload generation cannot fail for positive sizes")
        .table
}

/// Runs the linear-regression aggregate once on the default executor and
/// reports the wall-clock time.
///
/// # Panics
/// Panics if the fit fails, which cannot happen for the generated workloads.
pub fn measure_linregr(table: &Table, generation: KernelGeneration) -> Duration {
    let regression = LinearRegression::new("y", "x").with_kernel(generation);
    let start = Instant::now();
    let model = regression
        .fit(&Dataset::from_table(table))
        .expect("linear regression over generated data cannot fail");
    let elapsed = start.elapsed();
    // Keep the optimizer honest.
    assert!(model.coef.iter().all(|c| c.is_finite()));
    elapsed
}

/// Runs the full Figure 4 sweep and returns one measurement per cell.
pub fn figure4_sweep(
    segment_counts: &[usize],
    variable_counts: &[usize],
    rows: usize,
    generations: &[KernelGeneration],
) -> Vec<LinregrMeasurement> {
    let mut measurements = Vec::new();
    for &variables in variable_counts {
        // One logical dataset per variable count, re-partitioned per segment
        // count so every cell sees identical data (as in the paper, where the
        // same 10 M-row table is scanned by different cluster sizes).
        let base = figure4_table(rows, variables, 1, 42 + variables as u64);
        for &segments in segment_counts {
            let table = base
                .repartition(segments)
                .expect("repartition of generated data cannot fail");
            for &generation in generations {
                let elapsed = measure_linregr(&table, generation);
                measurements.push(LinregrMeasurement {
                    segments,
                    variables,
                    rows,
                    generation,
                    elapsed,
                });
            }
        }
    }
    measurements
}

/// Renders measurements in the layout of the paper's Figure 4 table
/// (`# segments`, `# variables`, `# rows`, one column per generation).
pub fn render_figure4(measurements: &[LinregrMeasurement]) -> String {
    let mut out = String::new();
    out.push_str(
        "# segments  # variables    # rows      v0.3 (s)  v0.2.1beta (s)  v0.1alpha (s)\n",
    );
    let mut cells: Vec<(usize, usize, usize)> = measurements
        .iter()
        .map(|m| (m.segments, m.variables, m.rows))
        .collect();
    cells.sort_unstable();
    cells.dedup();
    for (segments, variables, rows) in cells {
        let time_of = |generation: KernelGeneration| -> String {
            measurements
                .iter()
                .find(|m| {
                    m.segments == segments
                        && m.variables == variables
                        && m.rows == rows
                        && m.generation == generation
                })
                .map(|m| format!("{:.4}", m.elapsed.as_secs_f64()))
                .unwrap_or_else(|| "-".to_owned())
        };
        out.push_str(&format!(
            "{:>10}  {:>11}  {:>8}  {:>12}  {:>14}  {:>13}\n",
            segments,
            variables,
            rows,
            time_of(KernelGeneration::V03),
            time_of(KernelGeneration::V021Beta),
            time_of(KernelGeneration::V01Alpha),
        ));
    }
    out
}

/// Renders the Figure 5 view of the same measurements: execution time versus
/// the number of independent variables, one series per segment count
/// (v0.3 kernel only), plus the parallel-speedup factors relative to the
/// smallest segment count.
pub fn render_figure5(measurements: &[LinregrMeasurement]) -> String {
    let mut out = String::new();
    let mut segment_counts: Vec<usize> = measurements.iter().map(|m| m.segments).collect();
    segment_counts.sort_unstable();
    segment_counts.dedup();
    let mut variable_counts: Vec<usize> = measurements.iter().map(|m| m.variables).collect();
    variable_counts.sort_unstable();
    variable_counts.dedup();

    out.push_str("# variables");
    for &s in &segment_counts {
        out.push_str(&format!("  {s:>2} seg (s)"));
    }
    out.push('\n');
    for &variables in &variable_counts {
        out.push_str(&format!("{variables:>11}"));
        for &segments in &segment_counts {
            let t = measurements
                .iter()
                .find(|m| {
                    m.variables == variables
                        && m.segments == segments
                        && m.generation == KernelGeneration::V03
                })
                .map(|m| m.elapsed.as_secs_f64());
            match t {
                Some(t) => out.push_str(&format!("  {t:>10.4}")),
                None => out.push_str("           -"),
            }
        }
        out.push('\n');
    }

    // Speedup summary on the largest variable count (the regime where the
    // paper reports near-perfect linear speedup).
    if let (Some(&max_vars), Some(&base_segments)) =
        (variable_counts.last(), segment_counts.first())
    {
        let base_time = measurements
            .iter()
            .find(|m| {
                m.variables == max_vars
                    && m.segments == base_segments
                    && m.generation == KernelGeneration::V03
            })
            .map(|m| m.elapsed.as_secs_f64());
        if let Some(base_time) = base_time {
            out.push_str(&format!(
                "\nspeedup at {max_vars} variables (relative to {base_segments} segment(s)):\n"
            ));
            for &segments in &segment_counts {
                if let Some(t) = measurements
                    .iter()
                    .find(|m| {
                        m.variables == max_vars
                            && m.segments == segments
                            && m.generation == KernelGeneration::V03
                    })
                    .map(|m| m.elapsed.as_secs_f64())
                {
                    out.push_str(&format!(
                        "  {segments:>2} segments: {:.2}x (ideal {:.2}x)\n",
                        base_time / t,
                        segments as f64 / base_segments as f64
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_one_measurement_per_cell() {
        let measurements = figure4_sweep(
            &[1, 2],
            &[4, 8],
            500,
            &[KernelGeneration::V03, KernelGeneration::V01Alpha],
        );
        assert_eq!(measurements.len(), 2 * 2 * 2);
        assert!(measurements.iter().all(|m| m.elapsed.as_nanos() > 0));
        assert!(measurements.iter().all(|m| m.rows == 500));
    }

    #[test]
    fn rendering_contains_every_cell() {
        let measurements = figure4_sweep(&[1, 2], &[4], 200, &KernelGeneration::ALL);
        let table = render_figure4(&measurements);
        assert!(table.contains("v0.3"));
        assert!(table.contains("v0.1alpha"));
        // Two (segments × variables) cells → header plus two rows.
        assert_eq!(table.lines().count(), 3);

        let fig5 = render_figure5(&measurements);
        assert!(fig5.contains("# variables"));
        assert!(fig5.contains("speedup"));
    }

    #[test]
    fn workload_generation_is_deterministic() {
        let a = figure4_table(100, 3, 2, 7);
        let b = figure4_table(100, 3, 2, 7);
        assert_eq!(a.collect_rows(), b.collect_rows());
        let elapsed = measure_linregr(&a, KernelGeneration::V03);
        assert!(elapsed.as_nanos() > 0);
    }
}
