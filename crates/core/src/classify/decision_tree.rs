//! Decision trees in the C4.5 style.
//!
//! Table 1 of the paper lists "Decision Trees (C4.5)".  This implementation
//! follows Quinlan's C4.5 recipe for numeric attributes: at every node the
//! candidate split for each feature is the threshold midway between adjacent
//! sorted values that maximizes *gain ratio* (information gain normalized by
//! the split's intrinsic information), recursion stops on purity, depth, or
//! minimum node size, and a chi-square significance pre-prune can reject
//! splits that are not better than chance.
//!
//! Training data is read from an engine table (label text + feature array);
//! the per-node statistics are computed from an in-memory copy of the rows
//! reaching the node, which mirrors how MADlib's C4.5 module materializes
//! per-node row sets in temp tables.

use crate::error::{MethodError, Result};
use crate::train::Estimator;
use madlib_engine::chunk::ColumnChunk;
use madlib_engine::dataset::Dataset;
use madlib_stats::ChiSquare;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A node of the fitted tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// Leaf predicting a class label.
    Leaf {
        /// Predicted label.
        label: String,
        /// Number of training rows that reached the leaf.
        samples: usize,
        /// Fraction of those rows carrying the predicted label.
        purity: f64,
    },
    /// Internal split on `feature <= threshold`.
    Split {
        /// Feature index.
        feature: usize,
        /// Split threshold (goes left when `x[feature] <= threshold`).
        threshold: f64,
        /// Gain ratio achieved by this split.
        gain_ratio: f64,
        /// Left subtree (`<= threshold`).
        left: Box<TreeNode>,
        /// Right subtree (`> threshold`).
        right: Box<TreeNode>,
    },
}

/// A fitted decision-tree model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeModel {
    /// Root node.
    pub root: TreeNode,
    /// Number of features expected by [`DecisionTreeModel::predict`].
    pub num_features: usize,
    /// Number of training rows.
    pub num_rows: usize,
}

impl DecisionTreeModel {
    /// Predicts the class label for a feature vector.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidInput`] on a feature-length mismatch.
    pub fn predict(&self, x: &[f64]) -> Result<&str> {
        if x.len() != self.num_features {
            return Err(MethodError::invalid_input(format!(
                "feature length {} does not match model width {}",
                x.len(),
                self.num_features
            )));
        }
        let mut node = &self.root;
        loop {
            match node {
                TreeNode::Leaf { label, .. } => return Ok(label),
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        fn count(node: &TreeNode) -> usize {
            match node {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Maximum depth of the tree (a single leaf has depth 0).
    pub fn depth(&self) -> usize {
        fn depth(node: &TreeNode) -> usize {
            match node {
                TreeNode::Leaf { .. } => 0,
                TreeNode::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }
}

/// C4.5-style decision-tree learner.
#[derive(Debug, Clone)]
pub struct DecisionTree {
    label_column: String,
    features_column: String,
    max_depth: usize,
    min_samples_split: usize,
    /// Chi-square significance level for accepting a split; `None` disables
    /// the significance pre-prune.
    significance_level: Option<f64>,
}

impl DecisionTree {
    /// Creates a learner with defaults (depth ≤ 10, min node size 2, no
    /// significance prune).
    pub fn new(label_column: impl Into<String>, features_column: impl Into<String>) -> Self {
        Self {
            label_column: label_column.into(),
            features_column: features_column.into(),
            max_depth: 10,
            min_samples_split: 2,
            significance_level: None,
        }
    }

    /// Limits the tree depth.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Sets the minimum number of rows required to attempt a split.
    pub fn with_min_samples_split(mut self, min_samples_split: usize) -> Self {
        self.min_samples_split = min_samples_split.max(2);
        self
    }

    /// Enables the chi-square split significance test at level `alpha`
    /// (typically 0.05): a split is rejected when its class×branch
    /// contingency table is not significant.
    pub fn with_significance_level(mut self, alpha: f64) -> Self {
        self.significance_level = Some(alpha);
        self
    }
}

impl Estimator for DecisionTree {
    type Model = DecisionTreeModel;

    /// Fits the tree over the dataset's (filtered) rows.
    fn fit(&self, dataset: &Dataset<'_>) -> Result<DecisionTreeModel> {
        // Materialize (label, features) pairs via the chunk-level projection:
        // whole-column reads per chunk instead of one row materialization per
        // training point (partially selected chunks arrive compacted).
        let label_col = self.label_column.clone();
        let feat_col = self.features_column.clone();
        let rows: Vec<(String, Vec<f64>)> = dataset
            .map_chunks(move |chunk, schema| {
                let label_idx = schema.index_of(&label_col)?;
                let feat_idx = schema.index_of(&feat_col)?;
                let mut out = Vec::with_capacity(chunk.len());
                match chunk.column(label_idx) {
                    ColumnChunk::Text { values, nulls }
                        if matches!(chunk.column(feat_idx), ColumnChunk::DoubleArray { .. }) =>
                    {
                        let features = chunk.double_arrays(feat_idx)?;
                        for (i, label) in values.iter().enumerate() {
                            if nulls.is_null(i) || features.nulls().is_null(i) {
                                // Same errors the row-level accessors raise.
                                let row = chunk.row(i);
                                row.get(label_idx).as_text()?;
                                row.get(feat_idx).as_double_array()?;
                            }
                            out.push((label.clone(), features.row(i).to_vec()));
                        }
                    }
                    _ => {
                        for row in chunk.rows() {
                            let label = row.get(label_idx).as_text()?.to_owned();
                            let features = row.get(feat_idx).as_double_array()?.to_vec();
                            out.push((label, features));
                        }
                    }
                }
                Ok(out)
            })
            .map_err(MethodError::from)?;
        let num_features = rows
            .first()
            .map(|(_, f)| f.len())
            .ok_or_else(|| MethodError::invalid_input("empty input table"))?;
        if rows.iter().any(|(_, f)| f.len() != num_features) {
            return Err(MethodError::invalid_input(
                "inconsistent feature widths across rows",
            ));
        }
        let indices: Vec<usize> = (0..rows.len()).collect();
        let root = self.build_node(&rows, &indices, 0);
        Ok(DecisionTreeModel {
            root,
            num_features,
            num_rows: rows.len(),
        })
    }
}

impl DecisionTree {
    fn build_node(&self, rows: &[(String, Vec<f64>)], indices: &[usize], depth: usize) -> TreeNode {
        let (majority, majority_count) = majority_label(rows, indices);
        let purity = majority_count as f64 / indices.len() as f64;
        if purity >= 1.0 - 1e-12
            || depth >= self.max_depth
            || indices.len() < self.min_samples_split
        {
            return TreeNode::Leaf {
                label: majority,
                samples: indices.len(),
                purity,
            };
        }
        match self.best_split(rows, indices) {
            None => TreeNode::Leaf {
                label: majority,
                samples: indices.len(),
                purity,
            },
            Some(split) => {
                let left = self.build_node(rows, &split.left_indices, depth + 1);
                let right = self.build_node(rows, &split.right_indices, depth + 1);
                TreeNode::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    gain_ratio: split.gain_ratio,
                    left: Box::new(left),
                    right: Box::new(right),
                }
            }
        }
    }

    fn best_split(&self, rows: &[(String, Vec<f64>)], indices: &[usize]) -> Option<SplitChoice> {
        let num_features = rows[indices[0]].1.len();
        let parent_entropy = entropy(rows, indices);
        let mut best: Option<SplitChoice> = None;
        for feature in 0..num_features {
            let mut values: Vec<(f64, usize)> =
                indices.iter().map(|&i| (rows[i].1[feature], i)).collect();
            values.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            for w in 1..values.len() {
                let (prev, cur) = (values[w - 1].0, values[w].0);
                if (cur - prev).abs() < 1e-12 {
                    continue;
                }
                let threshold = 0.5 * (prev + cur);
                let left_indices: Vec<usize> = values[..w].iter().map(|&(_, i)| i).collect();
                let right_indices: Vec<usize> = values[w..].iter().map(|&(_, i)| i).collect();
                let n = indices.len() as f64;
                let p_left = left_indices.len() as f64 / n;
                let p_right = right_indices.len() as f64 / n;
                let gain = parent_entropy
                    - p_left * entropy(rows, &left_indices)
                    - p_right * entropy(rows, &right_indices);
                let intrinsic = -p_left * p_left.log2() - p_right * p_right.log2();
                if intrinsic <= 1e-12 || gain <= 1e-12 {
                    continue;
                }
                let gain_ratio = gain / intrinsic;
                if let Some(alpha) = self.significance_level {
                    if !split_is_significant(rows, &left_indices, &right_indices, alpha) {
                        continue;
                    }
                }
                if best
                    .as_ref()
                    .map(|b| gain_ratio > b.gain_ratio)
                    .unwrap_or(true)
                {
                    best = Some(SplitChoice {
                        feature,
                        threshold,
                        gain_ratio,
                        left_indices,
                        right_indices,
                    });
                }
            }
        }
        best
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain_ratio: f64,
    left_indices: Vec<usize>,
    right_indices: Vec<usize>,
}

fn majority_label(rows: &[(String, Vec<f64>)], indices: &[usize]) -> (String, usize) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for &i in indices {
        *counts.entry(rows[i].0.as_str()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
        .map(|(label, count)| (label.to_owned(), count))
        .unwrap_or_else(|| (String::new(), 0))
}

fn entropy(rows: &[(String, Vec<f64>)], indices: &[usize]) -> f64 {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for &i in indices {
        *counts.entry(rows[i].0.as_str()).or_insert(0) += 1;
    }
    let n = indices.len() as f64;
    counts
        .values()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Chi-square test of independence between the class distribution and the
/// left/right branch assignment.
fn split_is_significant(
    rows: &[(String, Vec<f64>)],
    left: &[usize],
    right: &[usize],
    alpha: f64,
) -> bool {
    let mut classes: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for &i in left {
        classes.entry(rows[i].0.as_str()).or_insert((0.0, 0.0)).0 += 1.0;
    }
    for &i in right {
        classes.entry(rows[i].0.as_str()).or_insert((0.0, 0.0)).1 += 1.0;
    }
    let n_left = left.len() as f64;
    let n_right = right.len() as f64;
    let n = n_left + n_right;
    let mut chi2 = 0.0;
    for &(l, r) in classes.values() {
        let class_total = l + r;
        let expected_left = class_total * n_left / n;
        let expected_right = class_total * n_right / n;
        if expected_left > 0.0 {
            chi2 += (l - expected_left) * (l - expected_left) / expected_left;
        }
        if expected_right > 0.0 {
            chi2 += (r - expected_right) * (r - expected_right) / expected_right;
        }
    }
    let df = (classes.len().max(2) - 1) as f64;
    ChiSquare::new(df).p_value(chi2) < alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::{row, Column, ColumnType, Schema, Table};

    fn labeled_schema() -> Schema {
        Schema::new(vec![
            Column::new("label", ColumnType::Text),
            Column::new("features", ColumnType::DoubleArray),
        ])
    }

    /// Conjunctive rule (label "in" iff x > 0 AND y > 0) learnable by greedy
    /// axis-aligned splits: the first split on x isolates a pure "out" side,
    /// the second split on y finishes the job.
    fn quadrant_table(segments: usize) -> Table {
        let mut t = Table::new(labeled_schema(), segments).unwrap();
        for i in 0..10 {
            for j in 0..10 {
                let x = i as f64 - 4.5;
                let y = j as f64 - 4.5;
                let label = if x > 0.0 && y > 0.0 { "in" } else { "out" };
                t.insert(row![label, vec![x, y]]).unwrap();
            }
        }
        t
    }

    #[test]
    fn learns_quadrant_rule_exactly() {
        let t = quadrant_table(4);
        let model = DecisionTree::new("label", "features")
            .with_max_depth(4)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert_eq!(model.num_rows, 100);
        assert_eq!(model.predict(&[3.0, 3.0]).unwrap(), "in");
        assert_eq!(model.predict(&[-3.0, -3.0]).unwrap(), "out");
        assert_eq!(model.predict(&[3.0, -3.0]).unwrap(), "out");
        assert_eq!(model.predict(&[-3.0, 3.0]).unwrap(), "out");
        assert!(model.depth() >= 2);
        assert!(model.leaf_count() >= 3);
    }

    #[test]
    fn pure_input_yields_single_leaf() {
        let mut t = Table::new(labeled_schema(), 2).unwrap();
        for i in 0..20 {
            t.insert(row!["only", vec![i as f64]]).unwrap();
        }
        let model = DecisionTree::new("label", "features")
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert_eq!(model.leaf_count(), 1);
        assert_eq!(model.depth(), 0);
        assert_eq!(model.predict(&[100.0]).unwrap(), "only");
        match &model.root {
            TreeNode::Leaf {
                purity, samples, ..
            } => {
                assert_eq!(*samples, 20);
                assert!((purity - 1.0).abs() < 1e-12);
            }
            _ => panic!("expected leaf"),
        }
    }

    #[test]
    fn depth_limit_is_respected() {
        let t = quadrant_table(2);
        let model = DecisionTree::new("label", "features")
            .with_max_depth(1)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert!(model.depth() <= 1);
    }

    #[test]
    fn significance_prune_rejects_noise_splits() {
        // Labels are independent of the single feature: a significant split
        // should not be found, so the tree stays a single leaf.
        let mut t = Table::new(labeled_schema(), 2).unwrap();
        for i in 0..60 {
            let label = if i % 2 == 0 { "a" } else { "b" };
            // Feature alternates in a way uncorrelated with the label pattern
            // (period 3 vs period 2).
            t.insert(row![label, vec![(i % 3) as f64]]).unwrap();
        }
        let model = DecisionTree::new("label", "features")
            .with_significance_level(0.05)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert_eq!(model.leaf_count(), 1, "noise split should be pruned");
    }

    #[test]
    fn error_handling() {
        let empty = Table::new(labeled_schema(), 2).unwrap();
        assert!(DecisionTree::new("label", "features")
            .fit(&Dataset::from_table(&empty))
            .is_err());

        let mut ragged = Table::new(labeled_schema(), 1).unwrap();
        ragged.insert(row!["a", vec![1.0, 2.0]]).unwrap();
        ragged.insert(row!["b", vec![1.0]]).unwrap();
        assert!(DecisionTree::new("label", "features")
            .fit(&Dataset::from_table(&ragged))
            .is_err());

        let t = quadrant_table(1);
        let model = DecisionTree::new("label", "features")
            .fit(&Dataset::from_table(&t))
            .unwrap();
        assert!(model.predict(&[1.0]).is_err());
    }

    #[test]
    fn min_samples_split_floor() {
        let t = quadrant_table(1);
        let model = DecisionTree::new("label", "features")
            .with_min_samples_split(1_000)
            .fit(&Dataset::from_table(&t))
            .unwrap();
        // Cannot split anywhere: single leaf with the majority label.
        assert_eq!(model.leaf_count(), 1);
    }
}
