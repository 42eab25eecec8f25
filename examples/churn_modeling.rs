//! Customer-churn modeling: the "deep analytics inside the warehouse"
//! scenario from the paper's introduction, on the uniform Session/Dataset
//! API.
//!
//! A synthetic customer table is loaded into the engine, three classifiers
//! from the method library (logistic regression, C4.5 decision tree, naive
//! Bayes) are trained on it through `session.train(...)`, their holdout
//! accuracy is compared with the cross-validation and metrics utilities —
//! and then the paper's headline `grouping_cols` scenario runs: **one churn
//! model per market segment** from a single
//! `session.train_grouped(..., dataset.group_by(["region"]))` call.
//!
//! Serving runs through the engine too: every fitted model is deposited in
//! the database's **model catalog** by name, the holdout is scored with
//! `session.score(...)` as a chunked scan pass (no hand-written predict
//! loops), and the per-region registry routes each customer to their
//! region's model.
//!
//! The data plants an ordering the grouped path must recover — ticket
//! sensitivity north > south > west, and per-region serving that classifies
//! at least 90 % of customers correctly — and the example exits non-zero
//! when it is lost, so CI running it guards `train_grouped` →
//! `gather_groups` and the catalog → `score_per_group` end to end.

use madlib::engine::{row, Column, ColumnType, Database, Dataset, Schema, Table};
use madlib::methods::classify::{DecisionTree, DecisionTreeModel, NaiveBayes, NaiveBayesModel};
use madlib::methods::regress::{LogisticRegression, LogisticRegressionModel};
use madlib::methods::validate::{accuracy, kfold_indices};
use madlib::methods::Session;

/// Deterministic synthetic customer base: churn depends on support tickets
/// and monthly spend with a noisy threshold, and each customer belongs to a
/// market region whose churn drivers differ.
fn customer_rows(n: usize) -> Vec<(f64, Vec<f64>, &'static str, &'static str)> {
    (0..n)
        .map(|i| {
            let region = ["north", "south", "west"][i % 3];
            let tickets = (i % 9) as f64;
            let spend = 20.0 + ((i * 13) % 80) as f64;
            let tenure = ((i * 7) % 60) as f64;
            // Ticket sensitivity differs per region — the reason one global
            // model underserves segmented markets.
            let ticket_weight = match i % 3 {
                0 => 1.2,
                1 => 0.8,
                _ => 0.4,
            };
            let score = ticket_weight * tickets - 0.05 * spend - 0.02 * tenure + 1.0;
            let noise = ((i * 31) % 7) as f64 / 7.0 - 0.5;
            let churned = if score + noise > 0.0 { 1.0 } else { 0.0 };
            let label = if churned > 0.5 { "churn" } else { "stay" };
            (churned, vec![1.0, tickets, spend, tenure], label, region)
        })
        .collect()
}

fn main() {
    let session = Session::new(Database::new(4).expect("segment count is positive"));
    let rows = customer_rows(2_100);

    let numeric_schema = Schema::new(vec![
        Column::new("region", ColumnType::Text),
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let labeled_schema = Schema::new(vec![
        Column::new("label", ColumnType::Text),
        Column::new("features", ColumnType::DoubleArray),
    ]);

    // 5-fold cross-validation of logistic regression.
    let folds = kfold_indices(rows.len(), 5, 42).expect("valid fold spec");
    let mut fold_accuracies = Vec::new();
    for fold in &folds {
        let mut train = Table::new(numeric_schema.clone(), 4).expect("table");
        for &i in &fold.train {
            let (y, x, _, region) = &rows[i];
            train.insert(row![*region, *y, x.clone()]).expect("insert");
        }
        let model = session
            .train(
                &LogisticRegression::new("y", "x"),
                &Dataset::from_table(&train),
            )
            .expect("fit");
        let predicted: Vec<bool> = fold
            .test
            .iter()
            .map(|&i| model.predict(&rows[i].1).expect("predict"))
            .collect();
        let actual: Vec<bool> = fold.test.iter().map(|&i| rows[i].0 > 0.5).collect();
        fold_accuracies.push(accuracy(&predicted, &actual).expect("accuracy"));
    }
    let mean_accuracy: f64 = fold_accuracies.iter().sum::<f64>() / fold_accuracies.len() as f64;
    println!("logistic regression, 5-fold CV accuracy: {mean_accuracy:.3}");

    // --- Grouped training: one churn model per market segment -------------
    // The paper's `grouping_cols`: a single call trains one logistic model
    // per region, segment-parallel over the same chunked scan pipeline.
    let mut customers = Table::new(numeric_schema, 4).expect("table");
    for (y, x, _, region) in &rows {
        customers
            .insert(row![*region, *y, x.clone()])
            .expect("insert");
    }
    let per_region = session
        .train_grouped(
            &LogisticRegression::new("y", "x"),
            &Dataset::from_table(&customers).group_by(["region"]),
        )
        .expect("grouped fit");
    println!("\nper-region churn models (grouping_cols = [region]):");
    // Groups come back sorted by key: north, south, west.
    let ticket_coefficients: Vec<f64> = per_region.iter().map(|(_, m)| m.coef[1]).collect();
    for (region, model) in &per_region {
        println!(
            "  {:<6} ticket-coefficient {:+.3}  ({} customers, {} IRLS iterations)",
            format!("{:?}", region.clone().into_value()),
            model.coef[1],
            model.num_rows,
            model.num_iterations,
        );
    }

    // --- Grouped serving: route every customer to their region's model ----
    // The trained registry goes into the model catalog as one named entry;
    // scoring the grouped dataset looks each row's region up in the
    // registry — bit-identical to filtering per region and predicting with
    // that region's model.
    session.register_grouped_models("churn_by_region", per_region);
    let grouped_ds = Dataset::from_table(&customers).group_by(["region"]);
    let routed = session
        .score::<LogisticRegressionModel>(&grouped_ds, "churn_by_region", "x")
        .expect("registry covers every region");
    // Predictions come back in table scan order, so collect ground truth
    // from a scan of the same table rather than from the insertion-order
    // vector.
    let grouped_truth: Vec<bool> = Dataset::from_table(&customers)
        .map_rows(|row, _| Ok(row.get(1).as_double()? > 0.5))
        .expect("customer scan");
    let routed_predictions: Vec<bool> = routed
        .iter()
        .map(|v| v.as_bool().expect("grouped scores are booleans"))
        .collect();
    let routed_accuracy = accuracy(&routed_predictions, &grouped_truth).expect("accuracy");
    println!("per-region catalog serving accuracy:      {routed_accuracy:.3}");

    // Decision tree and naive Bayes on a single split for comparison.
    let mut labeled = Table::new(labeled_schema.clone(), 4).expect("table");
    for (_, x, label, _) in rows.iter().take(1_500) {
        labeled.insert(row![*label, x.clone()]).expect("insert");
    }
    let tree = session
        .train(
            &DecisionTree::new("label", "features").with_max_depth(6),
            &Dataset::from_table(&labeled),
        )
        .expect("tree fit");
    let bayes = session
        .train(
            &NaiveBayes::new("label", "features"),
            &Dataset::from_table(&labeled),
        )
        .expect("bayes fit");

    // Registering moves the models into the catalog, so grab the tree's
    // shape first; from here on both are served by name.
    let tree_leaves = tree.leaf_count();
    session.register_model("churn_tree", tree);
    session.register_model("churn_bayes", bayes);

    // The holdout lives in its own table and is scored through the catalog
    // — no hand-written predict loop.
    let mut holdout = Table::new(labeled_schema, 4).expect("table");
    for (_, x, label, _) in rows.iter().skip(1_500) {
        holdout.insert(row![*label, x.clone()]).expect("insert");
    }
    let holdout_ds = Dataset::from_table(&holdout);
    let truth: Vec<String> = holdout_ds
        .map_rows(|row, _| Ok(row.get(0).as_text()?.to_owned()))
        .expect("holdout scan");
    let tree_scores = session
        .score::<DecisionTreeModel>(&holdout_ds, "churn_tree", "features")
        .expect("tree is in the catalog");
    let bayes_scores = session
        .score::<NaiveBayesModel>(&holdout_ds, "churn_bayes", "features")
        .expect("bayes is in the catalog");
    let tree_predictions: Vec<&str> = tree_scores
        .iter()
        .map(|v| v.as_text().expect("tree scores are labels"))
        .collect();
    let bayes_predictions: Vec<&str> = bayes_scores
        .iter()
        .map(|v| v.as_text().expect("bayes scores are labels"))
        .collect();
    let truth_refs: Vec<&str> = truth.iter().map(String::as_str).collect();
    let tree_accuracy = accuracy(&tree_predictions, &truth_refs).expect("accuracy");
    let bayes_accuracy = accuracy(&bayes_predictions, &truth_refs).expect("accuracy");
    println!(
        "\ndecision tree (C4.5) holdout accuracy:    {tree_accuracy:.3} ({tree_leaves} leaves)"
    );
    println!("naive Bayes holdout accuracy:             {bayes_accuracy:.3}");

    let ordered =
        matches!(ticket_coefficients[..], [north, south, west] if north > south && south > west);
    if !ordered || routed_accuracy < 0.9 {
        eprintln!(
            "planted structure lost: ticket coefficients {ticket_coefficients:?} \
             (want north > south > west), per-region accuracy {routed_accuracy:.3} (want >= 0.9)"
        );
        std::process::exit(1);
    }
}
