//! `repro` — regenerates the tables and figures of the MADlib paper's
//! evaluation on the Rust reproduction: Figures 4/5 (linregr over segments ×
//! variables × kernel generations), the method inventories of Tables 1–3,
//! the §4.2 IRLS driver, the §4.3 k-means large-state iteration and the §4.4
//! per-query overhead.
//!
//! ```text
//! cargo run -p madlib-bench --bin repro --release -- all
//! cargo run -p madlib-bench --bin repro --release -- figure4 [--full]
//! cargo run -p madlib-bench --bin repro --release -- figure5 [--full]
//! cargo run -p madlib-bench --bin repro --release -- table1 | table2 | table3
//! cargo run -p madlib-bench --bin repro --release -- logistic | kmeans | overhead
//! ```
//!
//! With `--full` the Figure 4/5 sweeps use the paper's variable counts
//! (10…320) and a larger row count; the default is a laptop-sized scaledown
//! that preserves the shape of the results.
//!
//! `table1`, `table2` and `table3` print `[ok]`/`[FAIL]` per method and the
//! process exits 1 if any check of the invoked command(s) failed, so they can
//! gate a script or a CI step.  Performance questions are not answered here:
//! the repository's benchmark is `madbench` (`benchmark/`, `BENCHMARK.json`).

use madlib_bench::{figure4_sweep, render_figure4, render_figure5};
use madlib_convex::objectives::{
    CrfObjective, LassoObjective, LeastSquaresObjective, LogisticObjective,
    MatrixFactorizationObjective, SvmHingeObjective,
};
use madlib_convex::{ConvexObjective, IgdConfig, IgdEstimator, StepSchedule};
use madlib_core::assoc::Apriori;
use madlib_core::classify::{DecisionTree, LinearSvm, NaiveBayes};
use madlib_core::cluster::KMeans;
use madlib_core::datasets;
use madlib_core::factor::LowRankFactorization;
use madlib_core::optim::conjugate_gradient_solve;
use madlib_core::regress::{LinearRegression, LogisticRegression};
use madlib_core::topic::Lda;
use madlib_core::train::{Estimator, Session};
use madlib_engine::{row, Column, ColumnType, Database, Dataset, Row, Schema, Table, Value};
use madlib_linalg::kernels::KernelGeneration;
use madlib_linalg::{DenseMatrix, DenseVector, SparseVector};
use madlib_sketch::{CountMinSketch, DatasetProfileExt, FlajoletMartin, QuantileSummary};
use madlib_text::mcmc::{gibbs_sample, metropolis_hastings_sample, McmcConfig};
use madlib_text::viterbi::viterbi_decode;
use madlib_text::{CrfEstimator, FeatureExtractor, TrigramIndex};
use std::time::Instant;

/// One experiment: takes the `--full` flag and the check tally.
type Experiment = fn(bool, &mut Checks);

/// The experiments `repro` runs, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("figure4", |full, _| figure4(full)),
    ("figure5", |full, _| figure5(full)),
    ("table1", |_, checks| table1(checks)),
    ("table2", |_, checks| table2(checks)),
    ("table3", |_, checks| table3(checks)),
    ("logistic", |_, _| logistic()),
    ("kmeans", |_, _| kmeans()),
    ("overhead", |_, _| overhead()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let command = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(name, _)| command == "all" || command == *name)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {command}");
        eprintln!(
            "expected one of: {} all",
            EXPERIMENTS.map(|(name, _)| name).join(" ")
        );
        std::process::exit(2);
    }
    let mut checks = Checks::default();
    for (_, run) in selected {
        run(full, &mut checks);
    }
    std::process::exit(checks.exit_code());
}

fn sweep_parameters(full: bool) -> (Vec<usize>, Vec<usize>, usize) {
    if full {
        // The paper's grid (segments scaled to the worker count the engine
        // will actually use — MADLIB_THREADS override included).
        let cores = madlib_engine::scan::worker_count();
        let segments: Vec<usize> = [6, 12, 18, 24]
            .iter()
            .map(|&s| s.min(cores))
            .collect::<Vec<_>>();
        (segments, vec![10, 20, 40, 80, 160, 320], 1_000_000)
    } else {
        (vec![1, 2, 4, 8], vec![10, 20, 40, 80], 50_000)
    }
}

fn figure4(full: bool) {
    let (segments, variables, rows) = sweep_parameters(full);
    println!("== Figure 4: linear-regression execution times ==");
    println!(
        "(rows = {rows}, segments = {segments:?}, variables = {variables:?}; paper: 10M rows on a 24-core Greenplum cluster)\n"
    );
    let measurements = figure4_sweep(&segments, &variables, rows, &KernelGeneration::ALL);
    println!("{}", render_figure4(&measurements));
}

fn figure5(full: bool) {
    let (segments, variables, rows) = sweep_parameters(full);
    println!("== Figure 5: execution time vs. #variables per segment count (v0.3) ==\n");
    let measurements = figure4_sweep(&segments, &variables, rows, &[KernelGeneration::V03]);
    println!("{}", render_figure5(&measurements));
}

/// Tally of the `[ok]`/`[FAIL]` checks of the invoked command(s).
#[derive(Default)]
struct Checks {
    failed: usize,
}

impl Checks {
    fn check(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            self.failed += 1;
        }
        println!(
            "  [{}] {:<28} {}",
            if passed { "ok" } else { "FAIL" },
            name,
            detail
        );
    }

    /// The process exit status: 1 if any check failed.
    fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }
}

#[allow(clippy::too_many_lines)]
fn table1(checks: &mut Checks) {
    println!("== Table 1: methods provided in MADlib v0.3 (reproduction status) ==");
    let session = Session::new(Database::new(4).unwrap());

    // Supervised learning.
    let lin = datasets::linear_regression_data(2_000, 5, 0.1, 4, 1).unwrap();
    let lin_model = session
        .train(
            &LinearRegression::new("y", "x"),
            &Dataset::from_table(&lin.table),
        )
        .unwrap();
    checks.check(
        "Linear Regression",
        lin_model.r2 > 0.9,
        format!("r2 = {:.4}", lin_model.r2),
    );

    let logit = datasets::logistic_regression_data(2_000, 3, 4, 2).unwrap();
    let logit_model = session
        .train(
            &LogisticRegression::new("y", "x"),
            &Dataset::from_table(&logit.table),
        )
        .unwrap();
    checks.check(
        "Logistic Regression",
        logit_model.converged,
        format!("{} IRLS iterations", logit_model.num_iterations),
    );

    let nb_schema = Schema::new(vec![
        Column::new("label", ColumnType::Text),
        Column::new("features", ColumnType::DoubleArray),
    ]);
    let mut nb_table = Table::new(nb_schema.clone(), 4).unwrap();
    for i in 0..200 {
        let (label, center) = if i % 2 == 0 { ("a", 0.0) } else { ("b", 5.0) };
        nb_table
            .insert(row![label, vec![center + (i % 7) as f64 * 0.1]])
            .unwrap();
    }
    let nb = session
        .train(
            &NaiveBayes::new("label", "features"),
            &Dataset::from_table(&nb_table),
        )
        .unwrap();
    checks.check(
        "Naive Bayes Classification",
        nb.predict(&[0.1]).unwrap() == "a" && nb.predict(&[5.1]).unwrap() == "b",
        format!("{} classes", nb.classes.len()),
    );

    let mut dt_table = Table::new(nb_schema, 4).unwrap();
    for i in 0..200 {
        let x = i as f64 / 20.0;
        let label = if x > 5.0 { "high" } else { "low" };
        dt_table.insert(row![label, vec![x]]).unwrap();
    }
    let dt = session
        .train(
            &DecisionTree::new("label", "features"),
            &Dataset::from_table(&dt_table),
        )
        .unwrap();
    checks.check(
        "Decision Trees (C4.5)",
        dt.predict(&[9.0]).unwrap() == "high" && dt.predict(&[1.0]).unwrap() == "low",
        format!("{} leaves", dt.leaf_count()),
    );

    let svm_data = datasets::logistic_regression_data(1_000, 3, 4, 5).unwrap();
    let svm = session
        .train(
            &LinearSvm::new("y", "x").with_epochs(15),
            &Dataset::from_table(&svm_data.table),
        )
        .unwrap();
    checks.check(
        "Support Vector Machines",
        svm.final_objective.is_finite(),
        format!("objective = {:.4}", svm.final_objective),
    );

    // Unsupervised learning.
    let blobs = datasets::gaussian_blobs(600, 3, 2, 0.5, 4, 7).unwrap();
    let km = session
        .train(
            &KMeans::new("coords", 3).unwrap(),
            &Dataset::from_table(&blobs.table),
        )
        .unwrap();
    checks.check(
        "k-Means Clustering",
        km.converged,
        format!("{} iterations, inertia = {:.1}", km.iterations, km.inertia),
    );

    let ratings = datasets::ratings_data(30, 25, 2, 0.5, 4, 9).unwrap();
    let mf = session
        .train(
            &LowRankFactorization::new("user_id", "item_id", "rating", 4)
                .unwrap()
                .with_epochs(40),
            &Dataset::from_table(&ratings),
        )
        .unwrap();
    checks.check(
        "SVD Matrix Factorization",
        mf.train_rmse < 0.3,
        format!("train RMSE = {:.4}", mf.train_rmse),
    );

    let corpus = datasets::document_corpus(30, 3, 15, 40, 4, 11).unwrap();
    let lda = session
        .train(
            &Lda::new("tokens", 3)
                .unwrap()
                .with_alpha(0.1)
                .with_iterations(80),
            &Dataset::from_table(&corpus),
        )
        .unwrap();
    checks.check(
        "Latent Dirichlet Allocation",
        lda.top_words(0, 5).unwrap().len() == 5,
        format!(
            "{} topics over {} words",
            lda.num_topics,
            lda.vocabulary.len()
        ),
    );

    let baskets = datasets::market_basket_data(800, 25, 4, 13).unwrap();
    let basket_model = session
        .train(
            &Apriori::new("items", 0.2, 0.6).unwrap(),
            &Dataset::from_table(&baskets),
        )
        .unwrap();
    checks.check(
        "Association Rules",
        !basket_model.rules.is_empty(),
        format!("{} rules found", basket_model.rules.len()),
    );

    // Descriptive statistics.
    let mut cm = CountMinSketch::with_error_bounds(0.01, 0.01);
    for i in 0..10_000u64 {
        cm.update(&format!("key{}", i % 97), 1);
    }
    checks.check(
        "Count-Min Sketch",
        cm.estimate("key0") >= 10_000 / 97,
        format!("estimate(key0) = {}", cm.estimate("key0")),
    );

    let mut fm = FlajoletMartin::new(64);
    for i in 0..5_000 {
        fm.update(&format!("user{i}"));
    }
    checks.check(
        "Flajolet-Martin Sketch",
        (fm.estimate() - 5_000.0).abs() / 5_000.0 < 0.35,
        format!("estimate = {:.0} (true 5000)", fm.estimate()),
    );

    let profile = Dataset::from_table(&lin.table).profile().unwrap();
    checks.check(
        "Data Profiling",
        profile.columns.len() == 2,
        format!("{} columns profiled", profile.columns.len()),
    );

    let mut quantiles = QuantileSummary::new(0.01);
    for i in 0..10_000 {
        quantiles.insert(i as f64);
    }
    checks.check(
        "Quantiles",
        (quantiles.median().unwrap() - 5_000.0).abs() < 300.0,
        format!("median ≈ {:.0}", quantiles.median().unwrap()),
    );

    // Support modules.
    let sparse = SparseVector::from_dense(&[0.0, 0.0, 3.0, 3.0, 0.0, 0.0, 0.0, 1.0]);
    checks.check(
        "Sparse Vectors",
        sparse.run_count() < sparse.len(),
        format!("{} runs for {} elements", sparse.run_count(), sparse.len()),
    );
    checks.check(
        "Array Operations",
        madlib_linalg::array_ops::array_dot(&[1.0, 2.0], &[3.0, 4.0]).unwrap() == 11.0,
        "dot([1,2],[3,4]) = 11".to_owned(),
    );
    let spd = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
    let cg =
        conjugate_gradient_solve(&spd, &DenseVector::from_vec(vec![1.0, 2.0]), 1e-10, 50).unwrap();
    checks.check(
        "Conjugate Gradient",
        cg.converged,
        format!("{} iterations", cg.iterations),
    );
    println!();
}

/// One check per model: the initial and final IGD objectives are finite and
/// the final one is lower.
fn table2(checks: &mut Checks) {
    println!("== Table 2: models implemented via the convex (SGD) framework ==");
    fn run<O: ConvexObjective>(
        checks: &mut Checks,
        name: &str,
        objective: O,
        table: &Table,
        initial: Vec<f64>,
        epochs: usize,
    ) {
        let summary = IgdEstimator::new(objective)
            .with_config(IgdConfig {
                max_epochs: epochs,
                tolerance: 1e-8,
                schedule: StepSchedule::Constant(0.05),
            })
            .with_initial_model(initial)
            .fit(&Dataset::from_table(table))
            .expect("IGD training failed");
        let (initial, fitted) = (summary.initial_objective_value, summary.objective_value);
        let reduction = 100.0 * (1.0 - fitted / initial.max(1e-12));
        checks.check(
            name,
            initial.is_finite() && fitted.is_finite() && fitted < initial,
            format!(
                "objective {initial:.4} -> {fitted:.4} ({reduction:.1}% lower), {} epochs",
                summary.epochs
            ),
        );
    }

    let reg = datasets::linear_regression_data(3_000, 6, 0.1, 4, 21).unwrap();
    let cls = datasets::logistic_regression_data(3_000, 6, 4, 22).unwrap();

    let ls = LeastSquaresObjective::new("y", "x", 6);
    run(checks, "Least Squares", ls, &reg.table, vec![0.0; 6], 40);
    let lasso = LassoObjective::new("y", "x", 6, 0.01);
    run(checks, "Lasso", lasso, &reg.table, vec![0.0; 6], 40);
    let logistic = LogisticObjective::new("y", "x", 6);
    run(
        checks,
        "Logistic Regression",
        logistic,
        &cls.table,
        vec![0.0; 6],
        40,
    );
    let svm = SvmHingeObjective::new("y", "x", 6, 1e-3);
    run(
        checks,
        "Classification (SVM)",
        svm,
        &cls.table,
        vec![0.0; 6],
        40,
    );

    let ratings = datasets::ratings_data(40, 30, 2, 0.4, 4, 23).unwrap();
    let mf = MatrixFactorizationObjective::new("user_id", "item_id", "rating", 40, 30, 4, 1e-4);
    let initial = mf.initial_model();
    run(checks, "Recommendation", mf, &ratings, initial, 80);

    let crf_table = crf_corpus(60, 4);
    let crf = CrfObjective::new("observations", "labels", 2, 4);
    let crf_dim = crf.dimension();
    run(
        checks,
        "Labeling (CRF)",
        crf,
        &crf_table,
        vec![0.0; crf_dim],
        40,
    );
    println!();
}

/// Small synthetic CRF training corpus shared by table2/table3.
fn crf_corpus(sequences: usize, segments: usize) -> Table {
    let schema = Schema::new(vec![
        Column::new("observations", ColumnType::IntArray),
        Column::new("labels", ColumnType::IntArray),
    ]);
    let mut t = Table::new(schema, segments).unwrap();
    for s in 0..sequences {
        let length = 6 + s % 4;
        let mut observations = Vec::new();
        let mut labels = Vec::new();
        for idx in 0..length {
            let label = (idx + s) % 2;
            observations.push((label * 2 + s % 2) as i64);
            labels.push(label as i64);
        }
        t.insert(Row::new(vec![
            Value::IntArray(observations),
            Value::IntArray(labels),
        ]))
        .unwrap();
    }
    t
}

fn table3(checks: &mut Checks) {
    println!("== Table 3: statistical text-analysis methods (POS / NER / ER) ==");
    let db = Database::new(4).unwrap();

    // Text feature extraction.
    let extractor = FeatureExtractor::new().with_dictionary("person", ["tim", "alice", "bob"]);
    let tokens = madlib_text::tokenize("Tim Tebow visited Denver in 2011");
    let features = extractor.extract(&tokens);
    checks.check(
        "Text Feature Extraction",
        features[0].active.iter().any(|f| f == "dict:person"),
        format!(
            "{} tokens, {} features on token 0",
            tokens.len(),
            features[0].active.len()
        ),
    );

    // CRF training + Viterbi inference.
    let corpus = crf_corpus(60, 4);
    let crf = Session::new(db.clone())
        .train(
            &CrfEstimator::new("observations", "labels", 2, 4).with_epochs(40),
            &Dataset::from_table(&corpus),
        )
        .unwrap();
    let observations = [0usize, 3, 0, 3, 0];
    let (labels, score) = viterbi_decode(&crf, &observations).unwrap();
    checks.check(
        "Viterbi Inference",
        labels == vec![0, 1, 0, 1, 0],
        format!("decoded {labels:?} with score {score:.2}"),
    );

    // MCMC inference.
    let config = McmcConfig {
        samples: 400,
        burn_in: 100,
        seed: 5,
    };
    let gibbs = gibbs_sample(&crf, &observations, &config).unwrap();
    let mh = metropolis_hastings_sample(&crf, &observations, &config).unwrap();
    checks.check(
        "MCMC Inference (Gibbs/MH)",
        gibbs.map_labels == labels && mh.map_labels == labels,
        format!(
            "Gibbs confidence {:.2}, MH acceptance {:.2}",
            gibbs.marginals[0][labels[0]], mh.acceptance_rate
        ),
    );

    // Approximate string matching (entity resolution).
    let mut index = TrigramIndex::new();
    index.insert("Tim Tebow threw for 300 yards");
    index.insert("Peyton Manning led the drive");
    index.insert("tim tebo signs autographs");
    let matches = index.search("Tim Tebow", 0.5);
    checks.check(
        "Approximate String Matching",
        matches.len() == 2,
        format!("{} approximate mentions of 'Tim Tebow'", matches.len()),
    );
    println!();
}

fn logistic() {
    println!("== Section 4.2: logistic regression via the IRLS driver (Figure 3 control flow) ==");
    let session = Session::new(Database::new(4).unwrap());
    let data = datasets::logistic_regression_data(20_000, 10, 4, 31).unwrap();
    let start = Instant::now();
    let model = session
        .train(
            &LogisticRegression::new("y", "x"),
            &Dataset::from_table(&data.table),
        )
        .unwrap();
    println!(
        "  20k rows × 10 variables: {} iterations, converged = {}, {:.3}s total, log-likelihood {:.1}\n",
        model.num_iterations,
        model.converged,
        start.elapsed().as_secs_f64(),
        model.log_likelihood
    );
}

fn kmeans() {
    println!("== Section 4.3: k-means large-state iteration ==");
    let session = Session::new(Database::new(4).unwrap());
    let data = datasets::gaussian_blobs(20_000, 5, 8, 1.0, 4, 37).unwrap();
    let start = Instant::now();
    let model = session
        .train(
            &KMeans::new("coords", 5).unwrap(),
            &Dataset::from_table(&data.table),
        )
        .unwrap();
    println!(
        "  20k points × 8 dims, k=5: {} iterations, converged = {}, inertia {:.0}, {:.3}s total\n",
        model.iterations,
        model.converged,
        model.inertia,
        start.elapsed().as_secs_f64()
    );
}

fn overhead() {
    println!("== Section 4.4: per-query overhead of the aggregate machinery ==");
    let table = madlib_bench::figure4_table(10, 2, 4, 3);
    let start = Instant::now();
    let iterations = 100;
    for _ in 0..iterations {
        let _ = madlib_bench::measure_linregr(&table, KernelGeneration::V03);
    }
    let per_query = start.elapsed().as_secs_f64() / iterations as f64;
    println!(
        "  tiny (10-row) linregr query: {:.6}s per query ({} samples) — the paper reports a fraction of a second\n",
        per_query, iterations
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failing_check_makes_the_exit_status_non_zero() {
        let mut checks = Checks::default();
        checks.check("passes", true, String::new());
        assert_eq!(checks.exit_code(), 0);
        checks.check("fails", false, String::new());
        checks.check("passes again", true, String::new());
        assert_eq!(checks.exit_code(), 1);
    }
}
