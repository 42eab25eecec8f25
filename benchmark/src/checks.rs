//! The correctness checkers: pure functions from what the engine returned to
//! a verdict, so each can be handed a deliberately wrong result in a unit
//! test and shown to fail.

use madlib_engine::{Row, Value};
use std::collections::BTreeMap;

pub type Verdict = Result<(), String>;

/// Named verdicts of one run, in the order they were made.
#[derive(Debug, Default)]
pub struct Checks {
    results: Vec<(&'static str, Verdict)>,
}

impl Checks {
    pub fn record(&mut self, name: &'static str, verdict: Verdict) {
        if let Err(reason) = &verdict {
            eprintln!("madbench: check {name} FAILED: {reason}");
        }
        self.results.push((name, verdict));
    }

    pub fn all_passed(&self) -> bool {
        self.results.iter().all(|(_, v)| v.is_ok())
    }

    pub fn results(&self) -> &[(&'static str, Verdict)] {
        &self.results
    }
}

/// Fitted coefficients are within `tolerance` of the generator's.
pub fn coefficients_recovered(fitted: &[f64], truth: &[f64], tolerance: f64) -> Verdict {
    if fitted.len() != truth.len() {
        return Err(format!(
            "{} coefficients fitted, {} generated",
            fitted.len(),
            truth.len()
        ));
    }
    for (i, (f, t)) in fitted.iter().zip(truth).enumerate() {
        // A NaN coefficient is off by NaN, which is not within any tolerance.
        let off = (f - t).abs();
        if off.is_nan() || off > tolerance {
            return Err(format!("coefficient {i}: fitted {f}, generated {t}"));
        }
    }
    Ok(())
}

/// Two float vectors are the same bit for bit — the engine's determinism
/// contract (parallel ≡ serial, refresh ≡ retrain, recovered ≡ committed).
pub fn same_bits(what: &str, left: &[f64], right: &[f64]) -> Verdict {
    if left.len() != right.len() {
        return Err(format!(
            "{what}: lengths {} and {}",
            left.len(),
            right.len()
        ));
    }
    match left
        .iter()
        .zip(right)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: element {i} differs: {:e} vs {:e}",
            left[i], right[i]
        )),
    }
}

/// Grouped training returned one model per distinct key.
pub fn one_model_per_key(models: usize, distinct_keys: usize) -> Verdict {
    if models == distinct_keys {
        Ok(())
    } else {
        Err(format!("{models} models for {distinct_keys} distinct keys"))
    }
}

/// Predictions of a scan agree bit for bit with per-row predictions at the
/// sampled positions (`expected[i]` belongs to `scored[positions[i]]`).
pub fn sampled_scores_match(scored: &[Value], positions: &[usize], expected: &[Value]) -> Verdict {
    for (&at, want) in positions.iter().zip(expected) {
        let got = scored
            .get(at)
            .ok_or_else(|| format!("no prediction at position {at} of {}", scored.len()))?;
        let same = match (got, want) {
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        };
        if !same {
            return Err(format!(
                "position {at}: scan scored {got}, row predict {want}"
            ));
        }
    }
    Ok(())
}

/// The engine's top-k (best first) equals the brute-force top-k: same scores
/// bit for bit, in the same order.
pub fn top_k_matches(engine: &[f64], brute_force: &[f64]) -> Verdict {
    same_bits("top-k scores", engine, brute_force)
}

/// Order-independent fingerprint of a set of rows: the count plus a wrapping
/// sum of per-row hashes over every value's bits, so two tables hold the
/// same multiset of rows iff (up to hash collisions) their fingerprints
/// agree, whatever order concurrent clients committed them in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowSetFingerprint {
    pub rows: u64,
    pub sum: u64,
}

impl RowSetFingerprint {
    pub fn add(&mut self, row: &Row) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(row));
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Self {
        let mut fingerprint = Self::default();
        for row in rows {
            fingerprint.add(row);
        }
        fingerprint
    }

    pub fn merge(&mut self, other: RowSetFingerprint) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word)
        .wrapping_mul(0x0000_0100_0000_01B3)
        .rotate_left(23)
}

fn row_hash(row: &Row) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for value in row.values() {
        h = match value {
            Value::Null => mix(h, 0x4E55_4C4C),
            Value::Double(d) => mix(mix(h, 1), d.to_bits()),
            Value::Int(i) => mix(mix(h, 2), *i as u64),
            Value::Text(s) => s.bytes().fold(mix(h, 3), |h, b| mix(h, u64::from(b))),
            Value::DoubleArray(x) => x
                .iter()
                .fold(mix(mix(h, 4), x.len() as u64), |h, d| mix(h, d.to_bits())),
            other => other
                .to_string()
                .bytes()
                .fold(mix(h, 5), |h, b| mix(h, u64::from(b))),
        };
    }
    h
}

/// Every acknowledged row, and nothing else, is in the recovered table.
pub fn recovered_is_acknowledged(
    acknowledged: RowSetFingerprint,
    recovered: RowSetFingerprint,
) -> Verdict {
    if acknowledged.rows != recovered.rows {
        return Err(format!(
            "{} rows acknowledged, {} recovered",
            acknowledged.rows, recovered.rows
        ));
    }
    if acknowledged.sum != recovered.sum {
        return Err("recovered rows differ from the acknowledged rows".to_owned());
    }
    Ok(())
}

/// Each snapshot a concurrent scorer saw holds the preloaded rows plus a
/// whole number of append batches (a batch is never half visible), and a
/// later snapshot never holds fewer rows than an earlier one.
pub fn snapshots_are_consistent(lengths: &[usize], preloaded: usize, batch: usize) -> Verdict {
    let mut previous = preloaded;
    for (i, &len) in lengths.iter().enumerate() {
        if len < preloaded || !(len - preloaded).is_multiple_of(batch) {
            return Err(format!(
                "snapshot {i} holds {len} rows: not {preloaded} + a multiple of {batch}"
            ));
        }
        if len < previous {
            return Err(format!(
                "snapshot {i} holds {len} rows after one with {previous}"
            ));
        }
        previous = len;
    }
    Ok(())
}

/// Counts the distinct `(tenant, region)` keys of generated rows.
pub fn distinct_keys(tenant: &[Option<u32>], region: &[i64]) -> usize {
    let mut keys: BTreeMap<(Option<u32>, i64), ()> = BTreeMap::new();
    for (t, r) in tenant.iter().zip(region) {
        keys.insert((*t, *r), ());
    }
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use madlib_engine::row;

    #[test]
    fn a_flipped_coefficient_bit_fails_the_bit_checks() {
        let coef = [1.5, -0.25, 3.0];
        assert!(same_bits("coef", &coef, &coef).is_ok());
        let mut flipped = coef;
        flipped[1] = f64::from_bits(flipped[1].to_bits() ^ 1);
        assert!(same_bits("coef", &coef, &flipped).is_err());
        assert!(same_bits("coef", &coef, &coef[..2]).is_err());
        // Bit identity is stricter than numeric equality.
        assert!(same_bits("zero", &[0.0], &[-0.0]).is_err());
        assert!(top_k_matches(&[2.0, 1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn coefficients_off_by_more_than_the_tolerance_fail() {
        let truth = [1.0, -2.0];
        assert!(coefficients_recovered(&[1.0 + 5e-7, -2.0], &truth, 1e-6).is_ok());
        assert!(coefficients_recovered(&[1.0 + 5e-6, -2.0], &truth, 1e-6).is_err());
        assert!(coefficients_recovered(&[f64::NAN, -2.0], &truth, 1e-6).is_err());
        assert!(coefficients_recovered(&[1.0], &truth, 1e-6).is_err());
    }

    #[test]
    fn one_dropped_row_fails_the_recovery_check() {
        let rows: Vec<Row> = (0..100)
            .map(|i| row!["t", i as i64, i as f64 * 0.5, 1.0, vec![i as f64, 2.0]])
            .collect();
        let acknowledged = RowSetFingerprint::of(&rows);
        // Commit order does not matter...
        let mut reordered = rows.clone();
        reordered.reverse();
        assert!(recovered_is_acknowledged(acknowledged, RowSetFingerprint::of(&reordered)).is_ok());
        // ...a dropped row does,
        assert!(
            recovered_is_acknowledged(acknowledged, RowSetFingerprint::of(&rows[1..])).is_err()
        );
        // and so does a row that came back changed in one bit.
        let mut corrupted = rows.clone();
        corrupted[40] = row![
            "t",
            40i64,
            f64::from_bits(20.0f64.to_bits() ^ 1),
            1.0,
            vec![40.0, 2.0]
        ];
        assert!(
            recovered_is_acknowledged(acknowledged, RowSetFingerprint::of(&corrupted)).is_err()
        );
        // Merging per-client fingerprints equals fingerprinting the union.
        let mut merged = RowSetFingerprint::of(&rows[..30]);
        merged.merge(RowSetFingerprint::of(&rows[30..]));
        assert_eq!(merged, acknowledged);
    }

    #[test]
    fn an_out_of_order_or_torn_snapshot_length_fails() {
        assert!(snapshots_are_consistent(&[1000, 1064, 1064, 1192], 1000, 64).is_ok());
        assert!(snapshots_are_consistent(&[], 1000, 64).is_ok());
        assert!(snapshots_are_consistent(&[1128, 1064], 1000, 64).is_err());
        assert!(snapshots_are_consistent(&[1000, 1063], 1000, 64).is_err());
        assert!(snapshots_are_consistent(&[936], 1000, 64).is_err());
    }

    #[test]
    fn a_wrong_prediction_or_model_count_fails() {
        let scored = vec![Value::Double(1.0), Value::Null, Value::Double(3.0)];
        assert!(sampled_scores_match(&scored, &[0, 1], &[Value::Double(1.0), Value::Null]).is_ok());
        assert!(sampled_scores_match(&scored, &[2], &[Value::Double(3.0000000000000004)]).is_err());
        assert!(sampled_scores_match(&scored, &[1], &[Value::Double(0.0)]).is_err());
        assert!(sampled_scores_match(&scored, &[3], &[Value::Null]).is_err());
        assert!(one_model_per_key(4096, 4096).is_ok());
        assert!(one_model_per_key(4095, 4096).is_err());
    }

    #[test]
    fn distinct_keys_count_null_tenants_per_region() {
        let tenant = [Some(1), Some(1), None, None, Some(2)];
        let region = [1, 1, 1, 2, 2];
        assert_eq!(distinct_keys(&tenant, &region), 4);
    }
}
