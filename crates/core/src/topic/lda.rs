//! Latent Dirichlet Allocation via collapsed Gibbs sampling.
//!
//! Table 1 of the paper lists LDA among the unsupervised methods, and Section
//! 5.2 describes the general pattern of carrying MCMC state across iterations
//! inside the engine.  This implementation uses the standard collapsed Gibbs
//! sampler: each token's topic assignment is resampled conditioned on the
//! current document-topic and topic-word counts, and the per-iteration sweep
//! over the corpus plays the role of the data-parallel pass.

use crate::error::{MethodError, Result};
use crate::train::Estimator;
use madlib_engine::chunk::ColumnChunk;
use madlib_engine::dataset::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A fitted LDA model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdaModel {
    /// Number of topics.
    pub num_topics: usize,
    /// Vocabulary: distinct words in index order.
    pub vocabulary: Vec<String>,
    /// Topic-word counts: `topic_word[k][w]`.
    pub topic_word: Vec<Vec<u32>>,
    /// Document-topic counts: `doc_topic[d][k]`.
    pub doc_topic: Vec<Vec<u32>>,
    /// Dirichlet prior on document-topic proportions.
    pub alpha: f64,
    /// Dirichlet prior on topic-word proportions.
    pub beta: f64,
    /// Gibbs sweeps performed.
    pub iterations: usize,
}

impl LdaModel {
    /// The `top_n` highest-probability words of a topic.
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidParameter`] for an out-of-range topic.
    pub fn top_words(&self, topic: usize, top_n: usize) -> Result<Vec<(String, u32)>> {
        let counts = self
            .topic_word
            .get(topic)
            .ok_or_else(|| MethodError::invalid_parameter("topic", "out of range"))?;
        let mut pairs: Vec<(String, u32)> = self
            .vocabulary
            .iter()
            .cloned()
            .zip(counts.iter().copied())
            .collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs.truncate(top_n);
        Ok(pairs)
    }

    /// Topic proportions of a document (normalized, with the α prior).
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidParameter`] for an out-of-range document.
    pub fn document_topics(&self, doc: usize) -> Result<Vec<f64>> {
        let counts = self
            .doc_topic
            .get(doc)
            .ok_or_else(|| MethodError::invalid_parameter("doc", "out of range"))?;
        let total: f64 =
            counts.iter().map(|&c| c as f64).sum::<f64>() + self.alpha * self.num_topics as f64;
        Ok(counts
            .iter()
            .map(|&c| (c as f64 + self.alpha) / total)
            .collect())
    }
}

/// Collapsed-Gibbs LDA trainer.
#[derive(Debug, Clone)]
pub struct Lda {
    tokens_column: String,
    num_topics: usize,
    alpha: f64,
    beta: f64,
    iterations: usize,
    seed: u64,
}

impl Lda {
    /// Creates a trainer with `num_topics` topics and defaults
    /// (α = 50/K, β = 0.01, 100 sweeps).
    ///
    /// # Errors
    /// Returns [`MethodError::InvalidParameter`] when `num_topics == 0`.
    pub fn new(tokens_column: impl Into<String>, num_topics: usize) -> Result<Self> {
        if num_topics == 0 {
            return Err(MethodError::invalid_parameter(
                "num_topics",
                "must be positive",
            ));
        }
        Ok(Self {
            tokens_column: tokens_column.into(),
            num_topics,
            alpha: 50.0 / num_topics as f64,
            beta: 0.01,
            iterations: 100,
            seed: 0,
        })
    }

    /// Sets the document-topic prior α.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the topic-word prior β.
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the number of Gibbs sweeps.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Extracts the token sequences of one column-major chunk: the fast path
    /// slices each document straight out of the flattened `text[]` buffer;
    /// NULL-bearing chunks and unexpected column types fall back to per-row
    /// access, which raises exactly the errors the legacy row loop did.
    fn chunk_documents(
        &self,
        chunk: &madlib_engine::RowChunk,
        schema: &madlib_engine::Schema,
    ) -> madlib_engine::Result<Vec<Vec<String>>> {
        let idx = schema.index_of(&self.tokens_column)?;
        if let ColumnChunk::TextArray {
            values,
            offsets,
            nulls,
        } = chunk.column(idx)
        {
            if !nulls.any_null() {
                return Ok((0..chunk.len())
                    .map(|i| values[offsets[i]..offsets[i + 1]].to_vec())
                    .collect());
            }
        }
        (0..chunk.len())
            .map(|i| Ok(chunk.value(i, idx).as_text_array()?.to_vec()))
            .collect()
    }
}

impl Estimator for Lda {
    type Model = LdaModel;

    /// Fits the model over a corpus dataset whose `tokens_column` holds
    /// `text[]` token sequences.  The corpus-loading pass rides the chunked
    /// scan pipeline; the seeded Gibbs sweeps run in-core over the collected
    /// documents in scan order.
    fn fit(&self, dataset: &Dataset) -> Result<LdaModel> {
        let documents: Vec<Vec<String>> = dataset
            .map_chunks(|chunk, schema| self.chunk_documents(chunk, schema))
            .map_err(MethodError::from)?;
        if documents.iter().all(|d| d.is_empty()) {
            return Err(MethodError::invalid_input("corpus contains no tokens"));
        }

        // Build the vocabulary.
        let mut word_ids: BTreeMap<&str, usize> = BTreeMap::new();
        for doc in &documents {
            for word in doc {
                let next_id = word_ids.len();
                word_ids.entry(word.as_str()).or_insert(next_id);
            }
        }
        let vocab_size = word_ids.len();
        let mut vocabulary = vec![String::new(); vocab_size];
        for (word, &id) in &word_ids {
            vocabulary[id] = (*word).to_owned();
        }

        // Tokenized corpus as word ids.
        let corpus: Vec<Vec<usize>> = documents
            .iter()
            .map(|doc| doc.iter().map(|w| word_ids[w.as_str()]).collect())
            .collect();

        let k = self.num_topics;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut topic_word = vec![vec![0u32; vocab_size]; k];
        let mut topic_totals = vec![0u32; k];
        let mut doc_topic = vec![vec![0u32; k]; corpus.len()];
        let mut assignments: Vec<Vec<usize>> = corpus
            .iter()
            .map(|doc| doc.iter().map(|_| rng.gen_range(0..k)).collect())
            .collect();
        for (d, doc) in corpus.iter().enumerate() {
            for (n, &w) in doc.iter().enumerate() {
                let z = assignments[d][n];
                topic_word[z][w] += 1;
                topic_totals[z] += 1;
                doc_topic[d][z] += 1;
            }
        }

        let mut probabilities = vec![0.0; k];
        for _sweep in 0..self.iterations {
            for (d, doc) in corpus.iter().enumerate() {
                for (n, &w) in doc.iter().enumerate() {
                    let old = assignments[d][n];
                    topic_word[old][w] -= 1;
                    topic_totals[old] -= 1;
                    doc_topic[d][old] -= 1;

                    let mut total = 0.0;
                    for (t, p) in probabilities.iter_mut().enumerate() {
                        let word_part = (topic_word[t][w] as f64 + self.beta)
                            / (topic_totals[t] as f64 + self.beta * vocab_size as f64);
                        let doc_part = doc_topic[d][t] as f64 + self.alpha;
                        *p = word_part * doc_part;
                        total += *p;
                    }
                    let mut target = rng.gen_range(0.0..total);
                    let mut new_topic = k - 1;
                    for (t, &p) in probabilities.iter().enumerate() {
                        if target < p {
                            new_topic = t;
                            break;
                        }
                        target -= p;
                    }

                    assignments[d][n] = new_topic;
                    topic_word[new_topic][w] += 1;
                    topic_totals[new_topic] += 1;
                    doc_topic[d][new_topic] += 1;
                }
            }
        }

        Ok(LdaModel {
            num_topics: k,
            vocabulary,
            topic_word,
            doc_topic,
            alpha: self.alpha,
            beta: self.beta,
            iterations: self.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::document_corpus;
    use madlib_engine::Table;

    fn fit(estimator: &Lda, table: &Table) -> Result<LdaModel> {
        estimator.fit(&Dataset::from_table(table))
    }

    #[test]
    fn recovers_topic_structure() {
        // 3 topics with disjoint vocabularies (t0_*, t1_*, t2_*).
        let corpus = document_corpus(30, 3, 20, 50, 3, 7).unwrap();
        let estimator = Lda::new("tokens", 3)
            .unwrap()
            .with_alpha(0.1)
            .with_beta(0.01)
            .with_iterations(200)
            .with_seed(3);
        let model = fit(&estimator, &corpus).unwrap();
        assert_eq!(model.num_topics, 3);
        assert_eq!(model.iterations, 200);
        // Each fitted topic should be dominated by words from one generator
        // topic: check the top-10 words share a prefix.
        let mut seen_prefixes = Vec::new();
        for t in 0..3 {
            let top = model.top_words(t, 10).unwrap();
            let mut prefix_counts: BTreeMap<String, usize> = BTreeMap::new();
            for (word, _) in &top {
                let prefix = word.split('_').next().unwrap_or("").to_owned();
                *prefix_counts.entry(prefix).or_insert(0) += 1;
            }
            let (best_prefix, best_count) =
                prefix_counts.into_iter().max_by_key(|(_, c)| *c).unwrap();
            assert!(
                best_count >= 8,
                "topic {t} not dominated by one generator topic: {top:?}"
            );
            seen_prefixes.push(best_prefix);
        }
        seen_prefixes.sort();
        seen_prefixes.dedup();
        assert_eq!(
            seen_prefixes.len(),
            3,
            "each topic maps to a distinct generator topic"
        );
    }

    #[test]
    fn document_topic_proportions_sum_to_one() {
        let corpus = document_corpus(10, 2, 10, 30, 2, 5).unwrap();
        let estimator = Lda::new("tokens", 2).unwrap().with_iterations(50);
        let model = fit(&estimator, &corpus).unwrap();
        for d in 0..10 {
            let props = model.document_topics(d).unwrap();
            let sum: f64 = props.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(props.iter().all(|&p| p > 0.0));
        }
        assert!(model.document_topics(99).is_err());
        assert!(model.top_words(99, 5).is_err());
    }

    #[test]
    fn parameter_validation() {
        assert!(Lda::new("tokens", 0).is_err());
        let empty = madlib_engine::Table::new(
            madlib_engine::Schema::new(vec![
                madlib_engine::Column::new("doc_id", madlib_engine::ColumnType::Int),
                madlib_engine::Column::new("tokens", madlib_engine::ColumnType::TextArray),
            ]),
            2,
        )
        .unwrap();
        assert!(fit(&Lda::new("tokens", 2).unwrap(), &empty).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let corpus = document_corpus(8, 2, 8, 20, 2, 11).unwrap();
        let estimator = Lda::new("tokens", 2)
            .unwrap()
            .with_iterations(20)
            .with_seed(9);
        let a = fit(&estimator, &corpus).unwrap();
        let b = fit(&estimator, &corpus).unwrap();
        assert_eq!(a.topic_word, b.topic_word);
        assert_eq!(a.doc_topic, b.doc_topic);
    }
}
