//! Comparing two sets of runs, metric by metric and workload by workload —
//! the table behind `madbench compare` and the verdict of `madbench selftest`.

use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::workload::{Better, END_TO_END};

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub runs: usize,
    pub median: f64,
    /// First and third quartile; `None` for a single run.
    pub quartiles: Option<(f64, f64)>,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Self {
        Self {
            runs: values.len(),
            median: median(values),
            quartiles: quartiles(values).map(|[q1, _, q3]| (q1, q3)),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile distance as a share of the median.
    fn spread(&self) -> Option<f64> {
        self.quartiles.map(|(q1, q3)| (q3 - q1) / self.median.abs())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's run-to-run spread exceeds the bound, and the sides overlap:
    /// neither "unchanged" nor "changed" can be claimed.
    Unresolved,
    /// Not an end-to-end metric: reported, not judged.
    Reported,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Summary,
    pub b: Summary,
    /// `(better, bound)` for end-to-end metrics.
    pub gate: Option<(Better, f64)>,
}

impl Row {
    /// By what share of A's median B's median is worse (negative: better).
    fn worse_by(better: Better, a: f64, b: f64) -> f64 {
        match better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        }
    }

    pub fn verdict(&self) -> Verdict {
        let Some((better, bound)) = self.gate else {
            return Verdict::Reported;
        };
        let too_wide = |s: &Summary| s.spread().is_some_and(|spread| spread > bound);
        if too_wide(&self.a) || too_wide(&self.b) {
            // Resolved after all if every run of B beats every run of A.
            let b_wins_every_pair = match better {
                Better::Lower => self.b.max < self.a.min,
                Better::Higher => self.b.min > self.a.max,
            };
            if !b_wins_every_pair {
                return Verdict::Unresolved;
            }
        }
        if Self::worse_by(better, self.a.median, self.b.median) > bound {
            Verdict::Worse
        } else {
            Verdict::Ok
        }
    }

    /// The selftest's rule: two sets of the *same* code may differ in
    /// neither direction by more than the bound.
    pub fn within_bound(&self) -> bool {
        self.gate.is_none_or(|(better, bound)| {
            Self::worse_by(better, self.a.median, self.b.median) <= bound
                && Self::worse_by(better, self.b.median, self.a.median) <= bound
        })
    }

    pub fn header() -> String {
        format!(
            "{:<15} {:<34} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  {}",
            "workload",
            "metric",
            "A median",
            "A [q1, q3] (runs)",
            "B median",
            "B [q1, q3] (runs)",
            "B/A",
            "bound",
            "verdict"
        )
    }

    pub fn render(&self) -> String {
        let side = |s: &Summary| match s.quartiles {
            Some((q1, q3)) => format!("[{q1:.5e}, {q3:.5e}] ({})", s.runs),
            None => format!("({})", s.runs),
        };
        let verdict = match self.verdict() {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved (spread > bound)",
            Verdict::Reported => "-",
        };
        format!(
            "{:<15} {:<34} {:>13.6e} {:>27} {:>13.6e} {:>27} {:>8.4} {:>6}  {}",
            self.workload,
            self.metric,
            self.a.median,
            side(&self.a),
            self.b.median,
            side(&self.b),
            // Base of the ratio: A's median.
            self.b.median / self.a.median,
            self.gate
                .map_or_else(|| "-".to_owned(), |(_, bound)| format!("{bound}")),
            verdict
        )
    }
}

/// Values of `metric` over a set's detail objects.
fn values(details: &[Json], metric: &str) -> Vec<f64> {
    details
        .iter()
        .filter_map(|d| d.get("metrics")?.get(metric)?.as_f64())
        .collect()
}

/// One row per metric both sets report, in the first set's report order.
pub fn compare_sets(workload: &str, a: &[Json], b: &[Json]) -> Vec<Row> {
    let Some(names) = a
        .first()
        .and_then(|d| d.get("metrics"))
        .and_then(Json::as_object)
    else {
        return Vec::new();
    };
    names
        .iter()
        .filter_map(|(metric, _)| {
            let (in_a, in_b) = (values(a, metric), values(b, metric));
            if in_a.is_empty() || in_b.is_empty() {
                return None;
            }
            Some(Row {
                workload: workload.to_owned(),
                metric: metric.clone(),
                a: Summary::of(&in_a),
                b: Summary::of(&in_b),
                gate: END_TO_END
                    .iter()
                    .find(|spec| spec.name == metric)
                    .map(|spec| (spec.better, spec.bound)),
            })
        })
        .collect()
}

/// Reads the detail objects (the lines with a `workload` and `metrics`) out
/// of a file of captured `madbench run` output.
pub fn read_details(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let details: Vec<Json> = text
        .lines()
        .filter(|line| line.trim_start().starts_with('{'))
        .filter_map(|line| Json::parse(line).ok())
        .filter(|value| value.get("workload").is_some() && value.get("metrics").is_some())
        .collect();
    if details.is_empty() {
        return Err(format!("{path}: no run detail lines"));
    }
    Ok(details)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn details(metric: &str, values: &[f64]) -> Vec<Json> {
        values
            .iter()
            .map(|v| {
                Json::obj([
                    ("workload", Json::str("w")),
                    ("metrics", Json::obj([(metric, Json::Num(*v))])),
                ])
            })
            .collect()
    }

    fn row(metric: &str, a: &[f64], b: &[f64]) -> Row {
        compare_sets("w", &details(metric, a), &details(metric, b)).remove(0)
    }

    #[test]
    fn a_median_beyond_the_bound_is_worse_in_the_metrics_direction() {
        // recover_s: lower is better, bound 25 %.
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(row("recover_s", &steady, &steady).verdict(), Verdict::Ok);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.5).collect();
        assert_eq!(row("recover_s", &steady, &slower).verdict(), Verdict::Worse);
        assert_eq!(row("recover_s", &slower, &steady).verdict(), Verdict::Ok);
        assert!(!row("recover_s", &steady, &slower).within_bound());
        assert!(!row("recover_s", &slower, &steady).within_bound());
        // train_rows_per_s: higher is better.
        assert_eq!(
            row("train_rows_per_s", &steady, &slower).verdict(),
            Verdict::Ok
        );
        assert_eq!(
            row("train_rows_per_s", &slower, &steady).verdict(),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [1.0, 1.4, 0.7, 1.2, 0.8];
        assert_eq!(
            row("recover_s", &noisy, &noisy).verdict(),
            Verdict::Unresolved
        );
        let far_better = [0.1, 0.14, 0.07, 0.12, 0.08];
        assert_eq!(row("recover_s", &noisy, &far_better).verdict(), Verdict::Ok);
    }

    #[test]
    fn per_layer_metrics_are_reported_not_judged() {
        let r = row("linalg.kernel_share", &[0.7, 0.71], &[0.2, 0.21]);
        assert_eq!(r.verdict(), Verdict::Reported);
        assert!(r.within_bound());
        assert!(r.render().contains("linalg.kernel_share"));
    }
}
