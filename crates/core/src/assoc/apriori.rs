//! Association-rule mining with the Apriori algorithm.
//!
//! Table 1 lists "Association Rules" among the unsupervised methods.  The
//! implementation is the classical Apriori level-wise search: frequent
//! itemsets are grown one item at a time, candidate k-itemsets are generated
//! by joining frequent (k−1)-itemsets, and support counting is one parallel
//! pass over the transactions dataset per level — each pass is a genuine UDA
//! on the chunked scan pipeline (`ItemCountsAggregate` for level 1,
//! `CandidateSupportAggregate` for the candidate levels; both override
//! `transition_chunk` to read the flattened `text[]` buffers directly, and
//! the per-segment counts merge by addition).  [`Apriori`] trains through the
//! uniform [`Estimator`] convention: `Session::train` yields an
//! [`AprioriModel`] holding the frequent itemsets *and* the confidence-
//! filtered association rules, and `Session::train_grouped` mines one rule
//! set per `grouping_cols` key (per-region market baskets).

use crate::error::{MethodError, Result};
use crate::train::Estimator;
use madlib_engine::aggregate::transition_chunk_by_rows;
use madlib_engine::chunk::ColumnChunk;
use madlib_engine::dataset::Dataset;
use madlib_engine::{Aggregate, Row, RowChunk, Schema};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A frequent itemset with its support.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequentItemset {
    /// Items, sorted lexicographically.
    pub items: Vec<String>,
    /// Fraction of transactions containing all the items.
    pub support: f64,
    /// Absolute number of transactions containing all the items.
    pub count: u64,
}

/// An association rule `antecedent ⇒ consequent`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssociationRule {
    /// Left-hand side items.
    pub antecedent: Vec<String>,
    /// Right-hand side items.
    pub consequent: Vec<String>,
    /// Support of the full itemset.
    pub support: f64,
    /// Confidence `support(A ∪ C) / support(A)`.
    pub confidence: f64,
    /// Lift `confidence / support(C)`.
    pub lift: f64,
}

/// A mined market-basket model: the frequent itemsets and the association
/// rules meeting the confidence threshold, as produced by
/// `Session::train(&Apriori::new(...)?, &dataset)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AprioriModel {
    /// Frequent itemsets in level order (singletons first), each level
    /// sorted lexicographically.
    pub itemsets: Vec<FrequentItemset>,
    /// Association rules meeting the confidence threshold, sorted by
    /// confidence descending.
    pub rules: Vec<AssociationRule>,
    /// Number of transactions mined.
    pub num_transactions: u64,
}

impl AprioriModel {
    /// The frequent itemset with exactly these items (sorted), if any.
    pub fn itemset(&self, items: &[&str]) -> Option<&FrequentItemset> {
        self.itemsets
            .iter()
            .find(|f| f.items.iter().map(String::as_str).eq(items.iter().copied()))
    }
}

/// Apriori frequent-itemset and rule miner.
#[derive(Debug, Clone)]
pub struct Apriori {
    items_column: String,
    min_support: f64,
    min_confidence: f64,
    max_itemset_size: usize,
}

impl Apriori {
    /// Creates a miner with the given minimum support and confidence.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidParameter`] when thresholds are outside
    /// `(0, 1]`.
    pub fn new(
        items_column: impl Into<String>,
        min_support: f64,
        min_confidence: f64,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&min_support) || min_support == 0.0 {
            return Err(MethodError::invalid_parameter(
                "min_support",
                "must be in (0, 1]",
            ));
        }
        if !(0.0..=1.0).contains(&min_confidence) {
            return Err(MethodError::invalid_parameter(
                "min_confidence",
                "must be in [0, 1]",
            ));
        }
        Ok(Self {
            items_column: items_column.into(),
            min_support,
            min_confidence,
            max_itemset_size: 4,
        })
    }

    /// Caps the size of mined itemsets (default 4).
    pub fn with_max_itemset_size(mut self, max_itemset_size: usize) -> Self {
        self.max_itemset_size = max_itemset_size.max(1);
        self
    }

    /// Generates the candidate `size`-itemsets by joining frequent
    /// `(size−1)`-itemsets sharing a `(size−2)`-prefix.
    fn candidates(previous_level: &[Vec<String>], size: usize) -> Vec<Vec<String>> {
        let mut candidates: BTreeSet<Vec<String>> = BTreeSet::new();
        for i in 0..previous_level.len() {
            for j in (i + 1)..previous_level.len() {
                let a = &previous_level[i];
                let b = &previous_level[j];
                if a[..size - 2] == b[..size - 2] {
                    let mut merged: Vec<String> = a.clone();
                    merged.push(b[size - 2].clone());
                    merged.sort();
                    merged.dedup();
                    if merged.len() == size {
                        candidates.insert(merged);
                    }
                }
            }
        }
        candidates.into_iter().collect()
    }

    /// Derives the association rules meeting the confidence threshold from
    /// the frequent itemsets (pure in-memory post-processing).
    fn rules_from_itemsets(&self, itemsets: &[FrequentItemset]) -> Vec<AssociationRule> {
        let support_of: BTreeMap<&[String], f64> = itemsets
            .iter()
            .map(|f| (f.items.as_slice(), f.support))
            .collect();
        let mut rules = Vec::new();
        for itemset in itemsets.iter().filter(|f| f.items.len() >= 2) {
            // All non-empty proper subsets as antecedents.
            let k = itemset.items.len();
            for mask in 1..(1u32 << k) - 1 {
                let mut antecedent = Vec::new();
                let mut consequent = Vec::new();
                for (bit, item) in itemset.items.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        antecedent.push(item.clone());
                    } else {
                        consequent.push(item.clone());
                    }
                }
                let Some(&antecedent_support) = support_of.get(antecedent.as_slice()) else {
                    continue;
                };
                let confidence = itemset.support / antecedent_support;
                if confidence < self.min_confidence {
                    continue;
                }
                let lift = match support_of.get(consequent.as_slice()) {
                    Some(&cs) if cs > 0.0 => confidence / cs,
                    _ => f64::NAN,
                };
                rules.push(AssociationRule {
                    antecedent,
                    consequent,
                    support: itemset.support,
                    confidence,
                    lift,
                });
            }
        }
        rules.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        rules
    }
}

impl Estimator for Apriori {
    type Model = AprioriModel;

    /// Mines the model with one aggregate pass over the dataset per itemset
    /// level: level 1 tallies per-item transaction counts (and the
    /// transaction total), each further level counts the support of the
    /// generated candidates.  Every pass honours the dataset's filter and
    /// executor.
    fn fit(&self, dataset: &Dataset<'_>) -> Result<AprioriModel> {
        let (item_counts, n) = dataset
            .aggregate(&ItemCountsAggregate {
                items_column: &self.items_column,
            })
            .map_err(MethodError::from)?;
        if n == 0 {
            return Err(MethodError::invalid_input("no transactions in input"));
        }
        let min_count = (self.min_support * n as f64).ceil() as u64;

        let mut frequent: Vec<FrequentItemset> = Vec::new();
        let mut current_level: Vec<Vec<String>> = Vec::new();
        for (item, count) in item_counts {
            if count >= min_count {
                current_level.push(vec![item.clone()]);
                frequent.push(FrequentItemset {
                    items: vec![item],
                    support: count as f64 / n as f64,
                    count,
                });
            }
        }

        let mut size = 1;
        while !current_level.is_empty() && size < self.max_itemset_size {
            size += 1;
            let candidates = Self::candidates(&current_level, size);
            if candidates.is_empty() {
                break;
            }
            // Support-counting pass for this level.
            let counts = dataset
                .aggregate(&CandidateSupportAggregate {
                    items_column: &self.items_column,
                    candidates: &candidates,
                })
                .map_err(MethodError::from)?;
            current_level = Vec::new();
            for (items, count) in candidates.into_iter().zip(counts) {
                if count >= min_count {
                    frequent.push(FrequentItemset {
                        items: items.clone(),
                        support: count as f64 / n as f64,
                        count,
                    });
                    current_level.push(items);
                }
            }
        }

        let rules = self.rules_from_itemsets(&frequent);
        Ok(AprioriModel {
            itemsets: frequent,
            rules,
            num_transactions: n,
        })
    }
}

/// Reads one transaction's distinct items out of a chunk's flattened
/// `text[]` buffer (duplicates within a basket count once, matching the
/// per-row `BTreeSet` semantics).
fn distinct_items<'a>(scratch: &mut BTreeSet<&'a str>, basket: &'a [String]) {
    scratch.clear();
    for item in basket {
        scratch.insert(item.as_str());
    }
}

/// Level-1 UDA: per-item transaction counts plus the transaction total.
struct ItemCountsAggregate<'a> {
    items_column: &'a str,
}

impl Aggregate for ItemCountsAggregate<'_> {
    type State = (BTreeMap<String, u64>, u64);
    type Output = (BTreeMap<String, u64>, u64);

    fn initial_state(&self) -> Self::State {
        (BTreeMap::new(), 0)
    }

    fn transition(
        &self,
        state: &mut Self::State,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let basket = row.get_named(schema, self.items_column)?.as_text_array()?;
        let mut scratch = BTreeSet::new();
        distinct_items(&mut scratch, basket);
        for item in &scratch {
            *state.0.entry((*item).to_owned()).or_insert(0) += 1;
        }
        state.1 += 1;
        Ok(())
    }

    /// Chunk kernel: walks the flattened `text[]` buffer span by span with no
    /// `Row`/`Value` materialization.  NULL-bearing chunks fall back to the
    /// per-row path, which reports the same type error a row scan would.
    fn transition_chunk(
        &self,
        state: &mut Self::State,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let idx = schema.index_of(self.items_column)?;
        if let ColumnChunk::TextArray {
            values,
            offsets,
            nulls,
        } = chunk.column(idx)
        {
            if !nulls.any_null() {
                let mut scratch = BTreeSet::new();
                for i in 0..chunk.len() {
                    distinct_items(&mut scratch, &values[offsets[i]..offsets[i + 1]]);
                    for item in &scratch {
                        *state.0.entry((*item).to_owned()).or_insert(0) += 1;
                    }
                    state.1 += 1;
                }
                return Ok(());
            }
        }
        transition_chunk_by_rows(self, state, chunk, schema)
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![self.items_column])
    }

    fn merge(&self, mut left: Self::State, right: Self::State) -> Self::State {
        for (item, count) in right.0 {
            *left.0.entry(item).or_insert(0) += count;
        }
        left.1 += right.1;
        left
    }

    fn finalize(&self, state: Self::State) -> madlib_engine::Result<Self::Output> {
        Ok(state)
    }
}

/// Level-k UDA: counts, for each candidate itemset, the transactions
/// containing all of its items.  The state is one counter per candidate,
/// merged by addition.
struct CandidateSupportAggregate<'a> {
    items_column: &'a str,
    candidates: &'a [Vec<String>],
}

impl CandidateSupportAggregate<'_> {
    fn count_basket(&self, counts: &mut [u64], basket: &BTreeSet<&str>) {
        for (slot, candidate) in self.candidates.iter().enumerate() {
            if candidate.iter().all(|item| basket.contains(item.as_str())) {
                counts[slot] += 1;
            }
        }
    }
}

impl Aggregate for CandidateSupportAggregate<'_> {
    type State = Vec<u64>;
    type Output = Vec<u64>;

    fn initial_state(&self) -> Vec<u64> {
        vec![0; self.candidates.len()]
    }

    fn transition(
        &self,
        state: &mut Vec<u64>,
        row: &Row,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let basket = row.get_named(schema, self.items_column)?.as_text_array()?;
        let mut scratch = BTreeSet::new();
        distinct_items(&mut scratch, basket);
        self.count_basket(state, &scratch);
        Ok(())
    }

    /// Chunk kernel over the flattened `text[]` buffer; NULL-bearing chunks
    /// fall back to the per-row path.
    fn transition_chunk(
        &self,
        state: &mut Vec<u64>,
        chunk: &RowChunk,
        schema: &Schema,
    ) -> madlib_engine::Result<()> {
        let idx = schema.index_of(self.items_column)?;
        if let ColumnChunk::TextArray {
            values,
            offsets,
            nulls,
        } = chunk.column(idx)
        {
            if !nulls.any_null() {
                let mut scratch = BTreeSet::new();
                for i in 0..chunk.len() {
                    distinct_items(&mut scratch, &values[offsets[i]..offsets[i + 1]]);
                    self.count_basket(state, &scratch);
                }
                return Ok(());
            }
        }
        transition_chunk_by_rows(self, state, chunk, schema)
    }

    fn input_columns(&self) -> Option<Vec<&str>> {
        Some(vec![self.items_column])
    }

    fn merge(&self, mut left: Vec<u64>, right: Vec<u64>) -> Vec<u64> {
        for (l, r) in left.iter_mut().zip(right) {
            *l += r;
        }
        left
    }

    fn finalize(&self, state: Vec<u64>) -> madlib_engine::Result<Vec<u64>> {
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::market_basket_data;
    use crate::test_support::{assert_chunk_path_is_row_fallback, assert_input_columns_suffice};
    use madlib_engine::expr::Predicate;
    use madlib_engine::{row, Column, ColumnType, Schema, Table, Value};
    use proptest::prelude::*;

    fn fit(estimator: &Apriori, table: &Table) -> Result<AprioriModel> {
        estimator.fit(&Dataset::from_table(table))
    }

    fn tiny_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("transaction_id", ColumnType::Int),
            Column::new("items", ColumnType::TextArray),
        ]);
        let mut t = Table::new(schema, 2).unwrap();
        let baskets: Vec<Vec<&str>> = vec![
            vec!["bread", "milk"],
            vec!["bread", "diapers", "beer", "eggs"],
            vec!["milk", "diapers", "beer", "cola"],
            vec!["bread", "milk", "diapers", "beer"],
            vec!["bread", "milk", "diapers", "cola"],
        ];
        for (i, basket) in baskets.iter().enumerate() {
            t.insert(row![
                i as i64,
                madlib_engine::Value::TextArray(basket.iter().map(|s| s.to_string()).collect())
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn support_counters_declare_every_column_they_read() {
        assert_input_columns_suffice(&ItemCountsAggregate {
            items_column: "items",
        });
        let candidates = [vec!["a".to_owned(), "b".to_owned()], vec!["c".to_owned()]];
        assert_input_columns_suffice(&CandidateSupportAggregate {
            items_column: "items",
            candidates: &candidates,
        });
    }

    #[test]
    fn finds_textbook_frequent_itemsets() {
        // The classic diapers/beer example: support({diapers, beer}) = 3/5.
        let t = tiny_table();
        let apriori = Apriori::new("items", 0.6, 0.7).unwrap();
        let model = fit(&apriori, &t).unwrap();
        assert_eq!(model.num_transactions, 5);
        assert!(model.itemset(&["bread"]).is_some());
        assert!(model.itemset(&["milk"]).is_some());
        assert!(model.itemset(&["diapers"]).is_some());
        let db = model
            .itemset(&["beer", "diapers"])
            .expect("beer+diapers should be frequent");
        assert!((db.support - 0.6).abs() < 1e-12);
        assert_eq!(db.count, 3);
        // {beer, eggs} has support 1/5 < 0.6: must be absent.
        assert!(model.itemset(&["beer", "eggs"]).is_none());
    }

    #[test]
    fn rule_confidence_and_lift() {
        let t = tiny_table();
        let apriori = Apriori::new("items", 0.4, 0.7).unwrap();
        let rules = fit(&apriori, &t).unwrap().rules;
        // beer ⇒ diapers has confidence 3/3 = 1.0 and lift 1/(4/5) = 1.25.
        let rule = rules
            .iter()
            .find(|r| r.antecedent == ["beer"] && r.consequent == ["diapers"])
            .expect("beer ⇒ diapers rule expected");
        assert!((rule.confidence - 1.0).abs() < 1e-12);
        assert!((rule.lift - 1.25).abs() < 1e-12);
        assert!((rule.support - 0.6).abs() < 1e-12);
        // Rules are sorted by confidence descending.
        for pair in rules.windows(2) {
            assert!(pair[0].confidence >= pair[1].confidence);
        }
    }

    #[test]
    fn finds_planted_pattern_in_synthetic_baskets() {
        let t = market_basket_data(400, 30, 4, 13).unwrap();
        let apriori = Apriori::new("items", 0.2, 0.6).unwrap();
        let rules = fit(&apriori, &t).unwrap().rules;
        // The generator plants item_0 + item_1 co-occurrence in ~40% of
        // baskets; a rule between them must be found with high confidence.
        assert!(
            rules.iter().any(|r| {
                (r.antecedent == ["item_0"] && r.consequent == ["item_1"])
                    || (r.antecedent == ["item_1"] && r.consequent == ["item_0"])
            }),
            "planted rule not found; rules: {rules:?}"
        );
    }

    #[test]
    fn parameter_validation() {
        assert!(Apriori::new("items", 0.0, 0.5).is_err());
        assert!(Apriori::new("items", 1.5, 0.5).is_err());
        assert!(Apriori::new("items", 0.5, 1.5).is_err());
        assert!(Apriori::new("items", 0.5, 0.5).is_ok());

        let schema = Schema::new(vec![
            Column::new("transaction_id", ColumnType::Int),
            Column::new("items", ColumnType::TextArray),
        ]);
        let empty = Table::new(schema, 2).unwrap();
        assert!(fit(&Apriori::new("items", 0.5, 0.5).unwrap(), &empty).is_err());
    }

    #[test]
    fn filters_apply_to_the_mining_passes() {
        use madlib_engine::expr::Predicate;

        // Restricting to the last four transactions changes the counts: only
        // transactions 1..=4 are mined, so n = 4 and bread appears 3 times.
        let t = tiny_table();
        let apriori = Apriori::new("items", 0.5, 0.5).unwrap();
        let model = apriori
            .fit(&Dataset::from_table(&t).filter(Predicate::column_gt("transaction_id", 0.5)))
            .unwrap();
        assert_eq!(model.num_transactions, 4);
        assert_eq!(model.itemset(&["bread"]).unwrap().count, 3);
        assert_eq!(model.itemset(&["beer", "diapers"]).unwrap().count, 3);
    }

    #[test]
    fn max_itemset_size_limits_search() {
        let t = tiny_table();
        let apriori = Apriori::new("items", 0.2, 0.5)
            .unwrap()
            .with_max_itemset_size(1);
        let model = fit(&apriori, &t).unwrap();
        assert!(model.itemsets.iter().all(|f| f.items.len() == 1));
    }

    proptest! {
        /// Both support-counting UDAs' chunk kernels are their per-row
        /// fallback, state for state and error for error, over 1–8-row
        /// chunks holding NULL, empty and duplicate-item baskets, filtered
        /// (compacted) or not.
        #[test]
        fn support_counting_chunk_paths_are_their_row_fallback(
            baskets in prop::collection::vec((0usize..8, prop::collection::vec(0usize..5, 0..5)), 0..50),
            (segments, chunk_capacity) in (1usize..4, 1usize..9),
        ) {
            let schema = Schema::new(vec![
                Column::new("keep", ColumnType::Double),
                Column::new("items", ColumnType::TextArray),
            ]);
            let mut table = Table::new(schema, segments)
                .unwrap()
                .with_chunk_capacity(chunk_capacity)
                .unwrap();
            for (i, (kind, basket)) in baskets.iter().enumerate() {
                let items = match kind {
                    0 => Value::Null,
                    _ => Value::TextArray(basket.iter().map(|b| format!("i{b}")).collect()),
                };
                let keep = Value::Double(f64::from(i % 3 != 0));
                table.insert(madlib_engine::Row::new(vec![keep, items])).unwrap();
            }
            let candidates: Vec<Vec<String>> = [&["i0", "i1"][..], &["i1", "i2"], &["i0", "i2", "i3"]]
                .iter()
                .map(|c| c.iter().map(|s| s.to_string()).collect())
                .collect();
            let counts = ItemCountsAggregate { items_column: "items" };
            let support = CandidateSupportAggregate {
                items_column: "items",
                candidates: &candidates,
            };
            for filter in [None, Some(Predicate::column_gt("keep", 0.5))] {
                assert_chunk_path_is_row_fallback(&counts, &table, filter.as_ref(), Clone::clone);
                assert_chunk_path_is_row_fallback(&support, &table, filter.as_ref(), Clone::clone);
            }
        }
    }
}
