//! Seeded input generation: every byte the engine sees is a pure function of
//! `--seed`.
//!
//! One table shape serves all five workloads — `(tenant text, region bigint,
//! y double precision, label double precision, x double precision[])` — so
//! each phase of the loop (train, serve, ingest, recover) runs the same code
//! on every workload and only the [`Shape`] numbers differ: width, row count,
//! key cardinality and skew, NULL share, segment placement.

use madlib_engine::{Column, ColumnType, Row, Schema, Value};

/// xoshiro256++ seeded through splitmix64: small, fast, and independent of
/// the workspace's vendored `rand` stand-in, so a change there can never
/// silently change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        Self {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Draws key ranks `0..n` with `P(rank = i) ∝ 1 / (i + 1)^s` by inverting the
/// cumulative distribution (binary search over a precomputed table);
/// `s == 0` is the uniform distribution.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a key distribution needs at least one key");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The data-dependent numbers of one workload's table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Rows of the main table.
    pub rows: usize,
    /// Width of the `x` feature vector.
    pub width: usize,
    /// Number of distinct composite `(tenant, region)` keys.
    pub keys: usize,
    /// Zipf exponent of the key distribution (`0` = uniform).
    pub zipf_s: f64,
    /// Share of rows whose `tenant` is NULL.
    pub null_tenant_share: f64,
}

/// Number of distinct `region` values; key rank `r` maps to region `r % 8`,
/// so `region = 3` selects one eighth of the *keys*.
pub const REGIONS: usize = 8;

/// The filter every workload's `filter_rows_per_s` uses.
pub const FILTER_REGION: i64 = 3;

/// Half-width of the uniform noise added to `y`: small enough that ordinary
/// least squares recovers the generator's coefficients to 1e-6, non-zero so
/// the fit's residual statistics stay finite.
pub const Y_NOISE: f64 = 1e-5;

pub fn schema() -> Schema {
    Schema::new(vec![
        Column::new("tenant", ColumnType::Text),
        Column::new("region", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("label", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ])
}

/// Column indices of [`schema`], for the direct chunk probes.
pub mod col {
    pub const TENANT: usize = 0;
    pub const REGION: usize = 1;
    pub const Y: usize = 2;
    pub const X: usize = 4;
}

/// Bytes of user data in one row: the two doubles, the bigint, the feature
/// vector and the tenant's UTF-8 bytes — what the user handed over, before
/// any framing, offsets or bitmaps (the base of `stored_bytes_per_user_byte`).
pub fn user_bytes(row: &Row) -> u64 {
    row.values()
        .iter()
        .map(|v| match v {
            Value::Text(s) => s.len() as u64,
            Value::DoubleArray(x) => 8 * x.len() as u64,
            Value::Null => 0,
            _ => 8,
        })
        .sum()
}

/// Raw generated rows in columnar form, from which engine rows are built
/// (repeatedly, for the set-up timing) without touching the generator again.
#[derive(Debug, Clone)]
pub struct RawData {
    pub width: usize,
    /// Key rank per row; `None` = NULL tenant (the region is still set).
    pub tenant: Vec<Option<u32>>,
    pub region: Vec<i64>,
    pub y: Vec<f64>,
    pub label: Vec<f64>,
    /// Row-major `rows × width`.
    pub x: Vec<f64>,
    /// The generator's regression coefficients (`y = ⟨coef, x⟩ + noise`).
    pub coef: Vec<f64>,
}

impl RawData {
    pub fn rows(&self) -> usize {
        self.y.len()
    }

    pub fn features(&self, i: usize) -> &[f64] {
        &self.x[i * self.width..(i + 1) * self.width]
    }

    /// Builds the engine row for generated row `i`.
    pub fn row(&self, i: usize) -> Row {
        let tenant = match self.tenant[i] {
            Some(rank) => Value::Text(tenant_name(rank)),
            None => Value::Null,
        };
        Row::new(vec![
            tenant,
            Value::Int(self.region[i]),
            Value::Double(self.y[i]),
            Value::Double(self.label[i]),
            Value::DoubleArray(self.features(i).to_vec()),
        ])
    }

    pub fn row_range(&self, range: std::ops::Range<usize>) -> Vec<Row> {
        range.map(|i| self.row(i)).collect()
    }
}

pub fn tenant_name(rank: u32) -> String {
    format!("t{rank:05}")
}

/// Generates `rows` rows of `shape` (its own `rows` field is ignored, so the
/// same shape yields the main table and the append stream).  `stream`
/// separates independent row streams of one seed; the coefficient vectors
/// depend on the seed only, so every stream of a run shares one ground truth.
pub fn generate(shape: &Shape, rows: usize, seed: u64, stream: u64) -> RawData {
    let width = shape.width;
    let mut truth = Rng::new(seed);
    let coef: Vec<f64> = (0..width).map(|_| truth.range(-2.0, 2.0)).collect();
    let logit: Vec<f64> = (0..width).map(|_| truth.range(-3.0, 3.0)).collect();

    let mut rng = Rng::new(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1));
    let zipf = Zipf::new(shape.keys, shape.zipf_s);
    let mut data = RawData {
        width,
        tenant: Vec::with_capacity(rows),
        region: Vec::with_capacity(rows),
        y: Vec::with_capacity(rows),
        label: Vec::with_capacity(rows),
        x: Vec::with_capacity(rows * width),
        coef,
    };
    for _ in 0..rows {
        let rank = zipf.sample(&mut rng);
        let is_null = rng.unit() < shape.null_tenant_share;
        data.tenant.push((!is_null).then_some(rank as u32));
        data.region.push((rank % REGIONS) as i64);
        let start = data.x.len();
        for _ in 0..width {
            data.x.push(rng.range(-1.0, 1.0));
        }
        let x = &data.x[start..];
        let mut y = 0.0;
        let mut z = 0.0;
        for ((xi, b), c) in x.iter().zip(&data.coef).zip(&logit) {
            y += xi * b;
            z += xi * c;
        }
        data.y.push(y + rng.range(-Y_NOISE, Y_NOISE));
        let p = 1.0 / (1.0 + (-z).exp());
        data.label.push(if rng.unit() < p { 1.0 } else { 0.0 });
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        rows: 0,
        width: 4,
        keys: 64,
        zipf_s: 1.1,
        null_tenant_share: 0.05,
    };

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let zipf = Zipf::new(4096, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same keys");
        assert_ne!(a, draw(8), "another seed, other keys");
        assert!(a.iter().all(|&k| k < 4096));
        let hottest = a.iter().filter(|&&k| k == 0).count();
        let second = a.iter().filter(|&&k| k == 1).count();
        assert!(hottest > second && second > 0, "rank 0 is the hot key");
        // P(rank 0) = 1 / H(4096, 1.1) ≈ 0.16.
        assert!((2_400..4_200).contains(&hottest), "hot key drew {hottest}");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let zipf = Zipf::new(4, 0.0);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(
            counts.iter().all(|c| (9_000..11_000).contains(c)),
            "{counts:?}"
        );
    }

    #[test]
    fn generation_repeats_per_seed_and_streams_share_the_truth() {
        let a = generate(&SHAPE, 500, 42, 0);
        let b = generate(&SHAPE, 500, 42, 0);
        assert_eq!(a.x, b.x);
        assert_eq!(a.tenant, b.tenant);
        assert_eq!(a.label, b.label);
        let other_stream = generate(&SHAPE, 500, 42, 1);
        assert_ne!(a.x, other_stream.x);
        assert_eq!(a.coef, other_stream.coef);
        assert_ne!(a.coef, generate(&SHAPE, 500, 43, 0).coef);
        assert!(a.tenant.iter().any(Option::is_none));
        assert!(a.label.contains(&1.0) && a.label.contains(&0.0));
    }

    #[test]
    fn rows_match_the_schema_and_the_byte_count() {
        let data = generate(&SHAPE, 50, 3, 0);
        let schema = schema();
        for i in 0..data.rows() {
            let row = data.row(i);
            schema.validate(row.values()).unwrap();
            let text = data.tenant[i].map_or(0, |_| 6);
            assert_eq!(user_bytes(&row), 24 + 8 * 4 + text);
        }
    }
}
