//! Viterbi inference over a linear-chain CRF.
//!
//! "The Viterbi dynamic programming algorithm is a popular algorithm to find
//! the top-k most likely labelings of a document for (linear chain) CRF
//! models" (paper Section 5.2).  Both the top-1 decode and a top-k variant
//! (via k-best list propagation) are provided.  The paper implemented this
//! first with recursive SQL + window functions and then with a driver UDF;
//! here the dynamic program is an ordinary in-core routine invoked per
//! document, which is how the per-document parallelization over Greenplum
//! segments behaves.

use crate::crf::ChainCrf;

/// The k best `(score, path)` candidates ending in one label at one step.
type Beam = Vec<(f64, Vec<usize>)>;
use madlib_engine::{EngineError, Result};

/// Most likely label sequence and its unnormalized log-score.
///
/// # Errors
/// Returns an engine error for empty input or out-of-range observations.
pub fn viterbi_decode(crf: &ChainCrf, observations: &[usize]) -> Result<(Vec<usize>, f64)> {
    let mut paths = viterbi_top_k(crf, observations, 1)?;
    Ok(paths.remove(0))
}

/// The `k` most likely label sequences (best first) with their scores.
///
/// # Errors
/// Returns an engine error for empty input, `k == 0`, or out-of-range
/// observations.
pub fn viterbi_top_k(
    crf: &ChainCrf,
    observations: &[usize],
    k: usize,
) -> Result<Vec<(Vec<usize>, f64)>> {
    if observations.is_empty() {
        return Err(EngineError::invalid("cannot decode an empty sequence"));
    }
    if k == 0 {
        return Err(EngineError::invalid("k must be positive"));
    }
    if observations.iter().any(|&o| o >= crf.num_observations()) {
        return Err(EngineError::invalid("observation symbol out of range"));
    }
    let num_labels = crf.num_labels();
    let n = observations.len();

    // Each cell keeps the k best (score, path) candidates ending in `label`.
    let mut beams: Vec<Vec<Beam>> = vec![vec![Vec::new(); num_labels]; n];
    #[allow(clippy::needless_range_loop)] // label doubles as path content and index
    for label in 0..num_labels {
        beams[0][label].push((crf.emission(label, observations[0]), vec![label]));
    }
    for t in 1..n {
        for label in 0..num_labels {
            let mut candidates: Vec<(f64, Vec<usize>)> = Vec::new();
            #[allow(clippy::needless_range_loop)] // previous doubles as label id and index
            for previous in 0..num_labels {
                for (prev_score, prev_path) in &beams[t - 1][previous] {
                    let score = prev_score
                        + crf.transition(previous, label)
                        + crf.emission(label, observations[t]);
                    let mut path = prev_path.clone();
                    path.push(label);
                    candidates.push((score, path));
                }
            }
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            candidates.truncate(k);
            beams[t][label] = candidates;
        }
    }
    let mut finals: Vec<(Vec<usize>, f64)> = beams[n - 1]
        .iter()
        .flatten()
        .map(|(score, path)| (path.clone(), *score))
        .collect();
    finals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    finals.truncate(k);
    Ok(finals)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive maximum-likelihood decode, the oracle that certifies Viterbi
    /// optimality on small chains (exponential cost — keep sequences short).
    ///
    /// # Errors
    /// Propagates scoring errors.
    fn brute_force_decode(crf: &ChainCrf, observations: &[usize]) -> Result<(Vec<usize>, f64)> {
        let num_labels = crf.num_labels();
        let n = observations.len();
        let mut best: Option<(Vec<usize>, f64)> = None;
        let total = (num_labels as u64).pow(n as u32);
        for code in 0..total {
            let mut labels = Vec::with_capacity(n);
            let mut c = code;
            for _ in 0..n {
                labels.push((c % num_labels as u64) as usize);
                c /= num_labels as u64;
            }
            let score = crf.sequence_log_score(observations, &labels)?;
            if best.as_ref().map(|(_, s)| score > *s).unwrap_or(true) {
                best = Some((labels, score));
            }
        }
        best.ok_or_else(|| EngineError::invalid("empty search space"))
    }

    /// A CRF with hand-set weights: observation i strongly prefers label
    /// i % 2, and transitions prefer staying in the same label.
    fn toy_crf() -> ChainCrf {
        let num_labels = 2;
        let num_observations = 4;
        let mut weights = vec![0.0; num_labels * num_observations + num_labels * num_labels];
        for obs in 0..num_observations {
            let preferred = obs % 2;
            weights[preferred * num_observations + obs] = 2.0;
        }
        // Transition block: sticky labels.
        let base = num_labels * num_observations;
        weights[base] = 0.5; // 0 -> 0
        weights[base + 3] = 0.5; // 1 -> 1
        ChainCrf::from_weights(num_labels, num_observations, weights).unwrap()
    }

    #[test]
    fn decodes_emission_dominated_sequences() {
        let crf = toy_crf();
        let (labels, score) = viterbi_decode(&crf, &[0, 2, 1, 3]).unwrap();
        assert_eq!(labels, vec![0, 0, 1, 1]);
        assert!(score > 0.0);
    }

    #[test]
    fn viterbi_matches_brute_force() {
        let crf = toy_crf();
        for observations in [
            vec![0usize, 1, 2, 3],
            vec![3, 3, 0],
            vec![1],
            vec![2, 0, 2, 0, 2],
        ] {
            let (viterbi_labels, viterbi_score) = viterbi_decode(&crf, &observations).unwrap();
            let (_brute_labels, brute_score) = brute_force_decode(&crf, &observations).unwrap();
            assert!(
                (viterbi_score - brute_score).abs() < 1e-9,
                "scores disagree on {observations:?}"
            );
            // The decoded labeling must achieve the optimal score.
            assert!(
                (crf.sequence_log_score(&observations, &viterbi_labels)
                    .unwrap()
                    - brute_score)
                    .abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn top_k_is_sorted_and_distinct() {
        let crf = toy_crf();
        let results = viterbi_top_k(&crf, &[0, 1, 2], 4).unwrap();
        assert_eq!(results.len(), 4);
        for pair in results.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "scores must be non-increasing");
            assert_ne!(pair[0].0, pair[1].0, "paths must be distinct");
        }
        // Top-1 of the top-k equals the plain decode.
        let (best, best_score) = viterbi_decode(&crf, &[0, 1, 2]).unwrap();
        assert_eq!(results[0].0, best);
        assert!((results[0].1 - best_score).abs() < 1e-12);
    }

    #[test]
    fn error_cases() {
        let crf = toy_crf();
        assert!(viterbi_decode(&crf, &[]).is_err());
        assert!(viterbi_top_k(&crf, &[0], 0).is_err());
        assert!(viterbi_decode(&crf, &[99]).is_err());
    }
}
