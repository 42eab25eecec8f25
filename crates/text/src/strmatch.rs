//! Approximate string matching with q-grams (paper Section 5.2,
//! "Approximate String Matching").
//!
//! The paper builds a trigram (3-gram) index with PostgreSQL's `pg_trgm`
//! module and exposes a UDF that "takes in a query string and returns all
//! documents in the corpus that contain at least one approximate match".
//! [`TrigramIndex`] is the engine-independent equivalent: documents are
//! indexed by their padded trigrams and queried by trigram-set similarity
//! (the same Jaccard-style similarity `pg_trgm` uses).

use std::collections::{BTreeMap, BTreeSet};

/// Extracts the padded trigram set of a string, lowercased, using the same
/// "  x" / "x " padding convention as `pg_trgm`.
pub fn trigrams(text: &str) -> BTreeSet<String> {
    let normalized: String = text
        .to_lowercase()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { ' ' })
        .collect();
    let mut set = BTreeSet::new();
    for word in normalized.split_whitespace() {
        let padded: Vec<char> = format!("  {word} ").chars().collect();
        for window in padded.windows(3) {
            set.insert(window.iter().collect());
        }
    }
    set
}

/// Trigram similarity in `[0, 1]`: `|A ∩ B| / |A ∪ B|`.
pub fn trigram_similarity(a: &str, b: &str) -> f64 {
    let ta = trigrams(a);
    let tb = trigrams(b);
    if ta.is_empty() && tb.is_empty() {
        return 1.0;
    }
    let intersection = ta.intersection(&tb).count() as f64;
    let union = ta.union(&tb).count() as f64;
    if union == 0.0 {
        0.0
    } else {
        intersection / union
    }
}

/// An inverted trigram index over a corpus of documents.
#[derive(Debug, Clone, Default)]
pub struct TrigramIndex {
    /// trigram → ids of documents containing it.
    postings: BTreeMap<String, BTreeSet<usize>>,
    documents: Vec<String>,
}

impl TrigramIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a document, returning its id.
    pub fn insert(&mut self, document: &str) -> usize {
        let id = self.documents.len();
        self.documents.push(document.to_owned());
        for trigram in trigrams(document) {
            self.postings.entry(trigram).or_default().insert(id);
        }
        id
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// The stored text of a document.
    pub fn document(&self, id: usize) -> Option<&str> {
        self.documents.get(id).map(String::as_str)
    }

    /// Returns `(document id, similarity)` for every document that contains
    /// an approximate match of `query`, best match first.  The score is the
    /// *containment* similarity — the fraction of the query's trigrams found
    /// in the document — which is the document-level analogue of `pg_trgm`'s
    /// `word_similarity` and matches the paper's "returns all documents in
    /// the corpus that contain at least one approximate match".  Only
    /// documents sharing at least one trigram with the query are scored
    /// (that is what the inverted index buys).
    pub fn search(&self, query: &str, threshold: f64) -> Vec<(usize, f64)> {
        let query_trigrams = trigrams(query);
        if query_trigrams.is_empty() {
            return Vec::new();
        }
        let mut candidates: BTreeSet<usize> = BTreeSet::new();
        for trigram in &query_trigrams {
            if let Some(ids) = self.postings.get(trigram) {
                candidates.extend(ids);
            }
        }
        let mut results: Vec<(usize, f64)> = candidates
            .into_iter()
            .map(|id| {
                let doc_trigrams = trigrams(&self.documents[id]);
                let contained = query_trigrams.intersection(&doc_trigrams).count() as f64;
                (id, contained / query_trigrams.len() as f64)
            })
            .filter(|(_, similarity)| *similarity >= threshold)
            .collect();
        results.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigram_extraction() {
        let grams = trigrams("Tim");
        assert!(grams.contains("  t"));
        assert!(grams.contains(" ti"));
        assert!(grams.contains("tim"));
        assert!(grams.contains("im "));
        assert!(trigrams("").is_empty());
        // Case and punctuation insensitive.
        assert_eq!(trigrams("Tim!"), trigrams("tim"));
    }

    #[test]
    fn similarity_properties() {
        assert_eq!(trigram_similarity("tebow", "tebow"), 1.0);
        assert_eq!(trigram_similarity("", ""), 1.0);
        let close = trigram_similarity("Tim Tebow", "Tim Tebo");
        let far = trigram_similarity("Tim Tebow", "Peyton Manning");
        assert!(close > far);
        assert!(close > 0.5);
        assert!(far < 0.2);
        // Symmetry.
        assert_eq!(
            trigram_similarity("alpha", "alpine"),
            trigram_similarity("alpine", "alpha")
        );
    }

    #[test]
    fn index_finds_approximate_entity_mentions() {
        // The paper's entity-resolution example: find mentions of "Tim Tebow".
        let mut index = TrigramIndex::new();
        let docs = [
            "Tim Tebow threw for 300 yards",
            "T. Tebow was seen at practice",
            "Peyton Manning led the drive",
            "tim tebo signs autographs",
            "Completely unrelated news about weather",
        ];
        for d in docs {
            index.insert(d);
        }
        assert_eq!(index.len(), 5);
        assert!(!index.is_empty());
        let results = index.search("Tim Tebow", 0.5);
        let ids: Vec<usize> = results.iter().map(|(id, _)| *id).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&3));
        assert!(!ids.contains(&2), "Manning doc must not match");
        assert!(!ids.contains(&4));
        // Results sorted by similarity.
        for pair in results.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        let (best, score) = results[0];
        assert_eq!(best, 0);
        assert!(score > 0.9);
        assert_eq!(index.document(best).unwrap(), docs[0]);
    }

    #[test]
    fn no_match_cases() {
        let mut index = TrigramIndex::new();
        index.insert("completely different content");
        assert!(index.search("zzzyyyxxx", 0.1).is_empty());
        assert_eq!(index.document(99), None);
    }
}
