//! The conformance kit's registry: one [`Entry`] per estimator.  An entry
//! gives a seeded table generator (its own columns beside the kit's key and
//! filter columns), a constructor, [`Entry::bits`] — a digest of every number
//! and label its model reports —, its pinned fits and its capabilities.  The
//! contracts over an entry are written once each in `tests/conformance.rs`,
//! on the case runner and comparisons here ([`cases`], [`outcome`]); the
//! grouped contract is here whole ([`grouped_cases`]), because the other
//! suites run it on shapes of their own, and they take [`bits`] from here.

#![allow(dead_code)] // each test binary uses a part of the module

use madlib::convex::objectives::LeastSquaresObjective;
use madlib::convex::{IgdConfig, IgdEstimator, IgdSummary, StepSchedule};
use madlib::engine::expr::Predicate;
use madlib::engine::{
    reference, Column, ColumnType, Dataset, Executor, GroupKey, Result as EngineResult, Row,
    Schema, Table, Value,
};
use madlib::methods::assoc::{Apriori, AprioriModel};
use madlib::methods::classify::decision_tree::TreeNode;
use madlib::methods::classify::{
    DecisionTree, DecisionTreeModel, LinearSvm, NaiveBayes, NaiveBayesModel, SvmModel,
};
use madlib::methods::cluster::{KMeans, KMeansModel, SeedingMethod};
use madlib::methods::datasets::{
    document_corpus, gaussian_blobs, linear_regression_data, logistic_regression_data,
    market_basket_data, ratings_data,
};
use madlib::methods::factor::{LowRankFactorization, LowRankModel};
use madlib::methods::regress::{
    LinearRegression, LinearRegressionModel, LogisticRegression, LogisticRegressionModel,
};
use madlib::methods::topic::{Lda, LdaModel};
use madlib::methods::{Estimator, GroupedModels, MethodError, Session};
use madlib::sketch::{ColumnProfile, ProfileAggregate, Profiler, TableProfile};
use madlib::text::{ChainCrf, CrfEstimator};
use proptest::prelude::Strategy;
use proptest::TestRng;

/// The bit patterns of `values`.
pub fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// FNV-1a over the bit patterns of `values`: one number that moves when any
/// bit of any value does.
fn digest(values: &[f64]) -> u64 {
    values.iter().fold(0xCBF2_9CE4_8422_2325, |hash, v| {
        v.to_bits().to_le_bytes().iter().fold(hash, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    })
}

/// `digest`'s FNV-1a step over the bytes of `labels`, each followed by a
/// `0xFF` separator byte, started from 0.
fn digest_labels<'a>(labels: impl IntoIterator<Item = &'a str>) -> u64 {
    labels.into_iter().fold(0, |hash, label| {
        label.bytes().chain([0xFF]).fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    })
}

/// One digest of a list of digests.
fn fold(digests: &[u64]) -> u64 {
    digest(
        &digests
            .iter()
            .map(|&d| f64::from_bits(d))
            .collect::<Vec<_>>(),
    )
}

/// A deterministic stream of numbers for the generators (SplitMix64).
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The type and values of the first grouping column `g0`.
#[derive(Clone, Copy, Debug)]
pub enum KeyKind {
    /// NULL and small integers.
    Int,
    /// NULL, NaN, `-0.0`, `0.0` and 1.5: each its own group.
    Double,
    /// NULL and short strings.
    Text,
}

/// How a generated table is laid out, keyed and filtered.  Every table has
/// the columns `g0` ([`KeyKind`]), `g1` (a double key part cycling `0.0`,
/// `-0.0`, NaN and NULL) and `keep` (see [`keep_filter`]) before the entry's
/// own.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub rows: usize,
    pub segments: usize,
    pub chunk_capacity: usize,
    pub keys: KeyKind,
    /// How many `g0` values the rows draw from.
    pub distinct: usize,
    /// Group by the mixed-type composite `(g0, g1)` — or `(g0, g1, keep)`
    /// when the seed's bit 2 is set — instead of `g0` alone.
    pub composite: bool,
    /// Fit under [`keep_filter`].
    pub filtered: bool,
    /// Seeds the rows and the estimator.
    pub seed: u64,
}

/// The proptest strategy over [`Shape`]s: up to 47 rows over 1–5 segments
/// (so some segments are empty) in chunks of 1–15 rows.
pub struct Shapes;

impl Strategy for Shapes {
    type Value = Shape;

    fn sample(&self, rng: &mut TestRng) -> Shape {
        Shape {
            rows: (1usize..48).sample(rng),
            segments: (1usize..6).sample(rng),
            chunk_capacity: (1usize..16).sample(rng),
            keys: [KeyKind::Int, KeyKind::Double, KeyKind::Text][(0usize..3).sample(rng)],
            distinct: (1usize..6).sample(rng),
            composite: (0u8..2).sample(rng) == 1,
            filtered: (0u8..2).sample(rng) == 1,
            seed: (0u64..1 << 32).sample(rng),
        }
    }
}

/// `keep > 0.5`: drops every row of each segment's chunks 1, 4, 7, … (whole
/// chunks emptied), every fifth row elsewhere (chunks compacted) and, having
/// a NULL `keep`, every eleventh.
pub fn keep_filter() -> Predicate {
    Predicate::column_gt("keep", 0.5)
}

impl Shape {
    /// 40 rows over three segments of 4-row chunks, grouped by four `g0`
    /// values (NULL among them) of about ten rows each.
    pub const FIXED: Shape = Shape {
        rows: 40,
        segments: 3,
        chunk_capacity: 4,
        keys: KeyKind::Int,
        distinct: 4,
        composite: false,
        filtered: false,
        seed: 7,
    };

    /// The parallel or the serial executor, by the seed's parity: a contract
    /// that does not compare the two runs under either.
    pub fn executor(&self) -> Executor {
        match self.seed % 2 {
            0 => Executor::new(),
            _ => Executor::serial(),
        }
    }

    /// The grouping columns.
    pub fn key_columns(&self) -> Vec<&'static str> {
        let arity = match (self.composite, self.seed / 4 % 2) {
            (false, _) => 1,
            (true, 0) => 2,
            (true, _) => 3,
        };
        ["g0", "g1", "keep"][..arity].to_vec()
    }

    pub fn schema<E: Entry>(&self) -> Schema {
        let g0 = match self.keys {
            KeyKind::Int => ColumnType::Int,
            KeyKind::Double => ColumnType::Double,
            KeyKind::Text => ColumnType::Text,
        };
        let mut columns = vec![
            Column::new("g0", g0),
            Column::new("g1", ColumnType::Double),
            Column::new("keep", ColumnType::Double),
        ];
        columns.extend(E::columns());
        Schema::new(columns)
    }

    /// The seeded rows, in insertion order.
    pub fn rows<E: Entry>(&self) -> Vec<Row> {
        let mut g = Gen(self.seed);
        let stride = self.segments * self.chunk_capacity;
        (0..self.rows)
            .map(|i| {
                let k = g.below(self.distinct);
                let g0 = match (self.keys, k) {
                    (KeyKind::Int | KeyKind::Text, 0) => Value::Null,
                    (KeyKind::Int, k) => Value::Int(k as i64 - 2),
                    (KeyKind::Text, k) => Value::Text(format!("g{k}")),
                    (KeyKind::Double, k) => [Value::Null, Value::Double(f64::NAN)]
                        .into_iter()
                        .chain([-0.0, 0.0, 1.5].map(Value::Double))
                        .nth(k % 5)
                        .unwrap(),
                };
                let g1 = [
                    Value::Double(0.0),
                    Value::Double(-0.0),
                    Value::Double(f64::NAN),
                ]
                .into_iter()
                .chain([Value::Null])
                .nth(g.below(4))
                .unwrap();
                let keep = match i % 11 {
                    3 => Value::Null,
                    _ => Value::Double(f64::from(!((i / stride) % 3 == 1 || i % 5 == 0))),
                };
                let mut values = vec![g0, g1, keep];
                values.extend(E::row(&mut g));
                Row::new(values)
            })
            .collect()
    }

    /// `rows` in a table of this shape's segments and chunk capacity.
    pub fn table_of(&self, schema: Schema, rows: Vec<Row>) -> Table {
        let mut table = Table::new(schema, self.segments)
            .unwrap()
            .with_chunk_capacity(self.chunk_capacity)
            .unwrap();
        table.insert_all(rows).unwrap();
        table
    }

    pub fn table<E: Entry>(&self) -> Table {
        self.table_of(self.schema::<E>(), self.rows::<E>())
    }
}

/// How `Session::train_grouped` trains the groups.
pub enum Grouped<M> {
    /// One segment-parallel aggregate pass; carries the per-row reference
    /// fold of the estimator's aggregate (`reference::aggregate`).
    SinglePass(fn(&Dataset) -> EngineResult<M>),
    /// The per-group gather, then one fit per group.
    Gather,
}

/// How `Session::refresh` keeps a cataloged model fresh.
pub enum Refresh<E, M> {
    /// A materialized view absorbs the appended rows: refresh ≡ retrain.
    ViewBacked,
    /// A fit warm-started from the cataloged model: refresh ≡ the fit of
    /// the estimator this function seeds with the previous model.
    WarmStart(fn(&E, &M) -> E),
    /// Not an `IncrementalEstimator`, and why.
    None(&'static str),
}

/// One estimator of the registry.
pub trait Entry {
    type Est: Estimator<Model = Self::Model> + Sync;
    type Model: std::fmt::Debug + Send + Sync + 'static;

    const GROUPED: Grouped<Self::Model>;
    const REFRESH: Refresh<Self::Est, Self::Model>;
    /// `Err(reason)` when the model has no per-row prediction.
    const PREDICTS: Result<(), &'static str>;
    /// `Err(reason)` when a fit over no row is well-defined, not refused.
    const REJECTS_EMPTY: Result<(), &'static str> = Ok(());
    /// [`Entry::pinned`]'s models, digested by [`Entry::bits`].
    const PINNED: &'static [&'static [u64]];

    /// The entry's columns, after the kit's `g0`, `g1` and `keep`.
    fn columns() -> Vec<Column>;
    /// One row of those columns.
    fn row(g: &mut Gen) -> Vec<Value>;
    fn estimator(seed: u64) -> Self::Est;
    /// Every number and label the model reports.
    fn bits(model: &Self::Model) -> Vec<u64>;
    /// Rows of [`Entry::columns`] each of which a fit refuses.
    fn degenerate() -> Vec<Vec<Value>>;
    /// The fits whose digests are pinned, under `executor`.
    fn pinned(executor: Executor) -> Vec<Self::Model>;
}

/// The parallel and the serial executor.
pub fn both() -> [Executor; 2] {
    [Executor::new(), Executor::serial()]
}

/// What a test compares of a model: its digests and its `Debug` text.
pub type Seen = (Vec<u64>, String);

pub fn seen<E: Entry>(model: &E::Model) -> Seen {
    (E::bits(model), format!("{model:?}"))
}

/// A fit as compared: the model seen, or the error's message.
pub fn outcome<E: Entry>(fit: &madlib::methods::Result<E::Model>) -> Result<Seen, String> {
    fit.as_ref().map(seen::<E>).map_err(MethodError::to_string)
}

/// Runs `case` on `proptest::DEFAULT_CASES` shapes drawn from a seed named
/// after the contract and the entry, and asserts that at least a quarter of
/// them reported a fit, so a contract cannot pass by every fit failing.
pub fn cases<E: Entry>(contract: &str, mut case: impl FnMut(Shape) -> bool) {
    let mut rng = proptest::new_rng(&format!("{contract}::{}", std::any::type_name::<E>()));
    let fitted = (0..proptest::DEFAULT_CASES)
        .filter(|_| case(Shapes.sample(&mut rng)))
        .count();
    assert!(
        fitted * 4 >= proptest::DEFAULT_CASES,
        "only {fitted} cases fitted"
    );
}

/// The shape's dataset over `table`, filtered when the shape is.
pub fn dataset(table: &Table, shape: &Shape, executor: Executor) -> Dataset {
    let dataset = Dataset::from_table(table).with_executor(executor);
    match shape.filtered {
        true => dataset.filter(keep_filter()),
        false => dataset,
    }
}

/// A grouped fit against its groups fitted alone: one model per surviving
/// key tuple, in key order, each seen as the group's own fit; or the error
/// of the first group (in key order) whose own fit fails.  Returns whether
/// any group was fitted.
pub fn assert_grouped_is_each_group_alone<E: Entry>(
    estimator: &E::Est,
    grouped: madlib::methods::Result<GroupedModels<E::Model>>,
    dataset: &Dataset,
    columns: &[&str],
    context: &dyn std::fmt::Debug,
) -> bool {
    let row_keys =
        dataset.map_rows(|row, _| Ok(GroupKey::from_values(&row.values()[..columns.len()])));
    let mut keys = row_keys.unwrap();
    keys.sort();
    keys.dedup();
    let alone = |key: &GroupKey| {
        let predicate = Predicate::columns_are_key(columns.iter().copied(), key.clone());
        estimator.fit(&dataset.clone().filter(predicate))
    };
    match grouped {
        Ok(models) => {
            assert_eq!(
                models.keys().cloned().collect::<Vec<_>>(),
                keys,
                "{context:?}"
            );
            for (key, model) in models.iter() {
                assert_eq!(
                    Ok(seen::<E>(model)),
                    outcome::<E>(&alone(key)),
                    "{context:?}"
                );
                let looked_up = models.get_values(&key.clone().into_values()).unwrap();
                assert_eq!(seen::<E>(looked_up), seen::<E>(model), "{context:?}");
            }
            !models.is_empty()
        }
        Err(error) => {
            let first = keys.iter().find_map(|key| alone(key).err());
            assert_eq!(
                first.map(|e| e.to_string()),
                Some(error.to_string()),
                "{context:?}"
            );
            false
        }
    }
}

/// The grouped contract over the shapes `contract`'s seed draws, each passed
/// through `shape_of` first: `Session::train_grouped` ≡ filtering the
/// dataset down to each group and fitting it alone, bit for bit.  The
/// grouped fit runs under the shape's executor, the groups alone under the
/// serial one.
pub fn grouped_cases<E: Entry>(contract: &str, shape_of: fn(Shape) -> Shape) {
    cases::<E>(contract, |shape| {
        let shape = shape_of(shape);
        let table = shape.table::<E>();
        let estimator = E::estimator(shape.seed);
        let dataset = dataset(&table, &shape, Executor::serial());
        let session = Session::in_memory(shape.segments).unwrap();
        let grouped_dataset = dataset.clone().with_executor(shape.executor());
        let grouped_dataset = grouped_dataset.group_by(shape.key_columns());
        let grouped = session.train_grouped(&estimator, &grouped_dataset);
        let columns = shape.key_columns();
        assert_grouped_is_each_group_alone::<E>(&estimator, grouped, &dataset, &columns, &shape)
    });
}

fn fit<E: Estimator>(estimator: &E, table: &Table, executor: Executor) -> E::Model {
    estimator
        .fit(&Dataset::from_table(table).with_executor(executor))
        .unwrap()
}

fn labeled_columns() -> Vec<Column> {
    vec![
        Column::new("y", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]
}

fn features(g: &mut Gen, width: usize) -> Vec<f64> {
    std::iter::once(1.0)
        .chain((1..width).map(|_| g.float(-5.0, 5.0)))
        .collect()
}

fn double(v: f64) -> Value {
    Value::Double(v)
}

fn array(v: &[f64]) -> Value {
    Value::DoubleArray(v.to_vec())
}

fn texts(prefix: &str, ids: impl IntoIterator<Item = usize>) -> Value {
    Value::TextArray(ids.into_iter().map(|i| format!("{prefix}{i}")).collect())
}

pub struct Linregr;

impl Entry for Linregr {
    type Est = LinearRegression;
    type Model = LinearRegressionModel;
    const GROUPED: Grouped<Self::Model> =
        Grouped::SinglePass(|ds| reference::aggregate(ds, &LinearRegression::new("y", "x")));
    const REFRESH: Refresh<Self::Est, Self::Model> = Refresh::ViewBacked;
    const PREDICTS: Result<(), &'static str> = Ok(());
    // Widths 8, 32 and 100; the six field digests recorded before the O(k³)
    // algebra ran on the kernel lanes, then the row count.
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[
        &[8302445193970852180, 2138716709505291902, 13013208889672352644,
          13343092454866122974, 14507665965081178688, 69534958007863213, 104],
        &[354319308929261601, 2888259722960317607, 7167232293129694715,
          11453250558173551020, 17916632779599554745, 15438751896633549772, 296],
        &[16648282652406364675, 10907438489183792903, 14910706563816561583,
          10158502203862302838, 13832333391585240708, 3854666904913471291, 840],
    ];

    fn columns() -> Vec<Column> {
        labeled_columns()
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        vec![double(g.float(-10.0, 10.0)), array(&features(g, 3))]
    }
    fn estimator(_: u64) -> LinearRegression {
        LinearRegression::new("y", "x")
    }
    fn bits(m: &LinearRegressionModel) -> Vec<u64> {
        let fields = [&m.coef, &m.std_err, &m.t_stats, &m.p_values];
        let mut out: Vec<u64> = fields.iter().map(|f| digest(f)).collect();
        out.extend([digest(&[m.r2]), digest(&[m.condition_no]), m.num_rows]);
        out
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![
            vec![double(1.0), Value::Null],
            vec![Value::Null, array(&[1.0, 2.0, 3.0])],
        ]
    }
    fn pinned(executor: Executor) -> Vec<LinearRegressionModel> {
        [8, 32, 100]
            .map(|w| {
                let data = linear_regression_data(8 * w + 40, w, 0.25, 4, w as u64).unwrap();
                fit(&LinearRegression::new("y", "x"), &data.table, executor)
            })
            .into()
    }
}

pub struct Logregr;

impl Entry for Logregr {
    type Est = LogisticRegression;
    type Model = LogisticRegressionModel;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::WarmStart(|e, m| e.clone().with_initial_coefficients(m.coef.clone()));
    const PREDICTS: Result<(), &'static str> = Ok(());
    // Cold, warm-started from half the cold coefficients and capped at two
    // iterations; then width 32, whose `coef` and `std_err` digests were
    // recorded before the Newton steps ran on the kernel lanes.
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[
        &[17152753459313107334, 14258086830526722960, 5521077674256451010,
          8011160679779466385, 760731101590869350, 600, 7, 1],
        &[1994849017861721208, 15363486217605586095, 2070976253640313440,
          8011160679779466385, 760731101590869350, 600, 6, 1],
        &[2489724210555599932, 11698614399426213952, 13059288605347115408,
          17081303764280668773, 5948722377632978875, 600, 2, 0],
        &[17529730881968574621, 12055911524339034831, 5127140448280318166,
          10118016282270366009, 3686561149011527388, 1500, 9, 1],
    ];

    fn columns() -> Vec<Column> {
        labeled_columns()
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        // Noisy logistic labels, so the classes overlap.
        let x = features(g, 3);
        let p = 1.0 / (1.0 + (x[2] - 1.5 * x[1]).exp());
        vec![double(f64::from(p > g.float(0.0, 1.0))), array(&x)]
    }
    fn estimator(_: u64) -> LogisticRegression {
        LogisticRegression::new("y", "x").with_max_iterations(5)
    }
    fn bits(m: &LogisticRegressionModel) -> Vec<u64> {
        let fields = [&m.coef, &m.std_err, &m.z_stats, &m.p_values];
        let mut out: Vec<u64> = fields.iter().map(|f| digest(f)).collect();
        out.extend([digest(&[m.log_likelihood]), m.num_rows]);
        out.extend([m.num_iterations as u64, u64::from(m.converged)]);
        out
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![
            vec![double(1.0), Value::Null],
            vec![double(0.0), array(&[1.0, f64::NAN, 0.0])],
        ]
    }
    fn pinned(executor: Executor) -> Vec<LogisticRegressionModel> {
        let table = logistic_regression_data(600, 6, 4, 7).unwrap().table;
        let base = || LogisticRegression::new("y", "x");
        let cold = fit(&base(), &table, executor);
        let half = cold.coef.iter().map(|c| 0.5 * c).collect();
        let warm = fit(&base().with_initial_coefficients(half), &table, executor);
        let capped = fit(&base().with_max_iterations(2), &table, executor);
        let wide = logistic_regression_data(1500, 32, 4, 32).unwrap().table;
        vec![cold, warm, capped, fit(&base(), &wide, executor)]
    }
}

/// Labeled four-segment blobs: each point carries the name of its nearest
/// generating center.
fn labeled_blobs() -> Table {
    let blobs = gaussian_blobs(400, 3, 2, 3.0, 4, 13).unwrap();
    let schema = Schema::new(vec![
        Column::new("label", ColumnType::Text),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let mut labeled = Table::new(schema, 4).unwrap();
    for row in blobs.table.collect_rows() {
        let x = row.get(1).as_double_array().unwrap().to_vec();
        let d = |c: &[f64]| c.iter().zip(&x).map(|(c, v)| (c - v).powi(2)).sum::<f64>();
        let nearest = (0..blobs.true_centers.len())
            .min_by(|&a, &b| d(&blobs.true_centers[a]).total_cmp(&d(&blobs.true_centers[b])))
            .unwrap();
        let label = Value::Text(format!("c{nearest}"));
        labeled.insert(Row::new(vec![label, array(&x)])).unwrap();
    }
    labeled
}

pub struct NaiveBayesEntry;

impl Entry for NaiveBayesEntry {
    type Est = NaiveBayes;
    type Model = NaiveBayesModel;
    const GROUPED: Grouped<Self::Model> =
        Grouped::SinglePass(|ds| reference::aggregate(ds, &NaiveBayes::new("label", "x")));
    const REFRESH: Refresh<Self::Est, Self::Model> = Refresh::ViewBacked;
    const PREDICTS: Result<(), &'static str> = Ok(());
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[&[
        400, 2, 17766070520165733193, 128, 6151958784373897663, 11836643798545951644, 124,
        15567081084964816480, 7543814697974225348, 148, 18197712814636330727,
        14585994654827028845,
    ]];

    fn columns() -> Vec<Column> {
        vec![
            Column::new("label", ColumnType::Text),
            Column::new("x", ColumnType::DoubleArray),
        ]
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        let label = Value::Text(format!("c{}", g.below(3)));
        vec![label, array(&[g.float(-5.0, 5.0), g.float(-5.0, 5.0)])]
    }
    fn estimator(_: u64) -> NaiveBayes {
        NaiveBayes::new("label", "x")
    }
    fn bits(m: &NaiveBayesModel) -> Vec<u64> {
        let mut out = vec![m.total_rows, m.num_features as u64];
        out.push(digest_labels(m.classes.keys().map(String::as_str)));
        for stats in m.classes.values() {
            out.extend([stats.count, digest(&stats.means), digest(&stats.variances)]);
        }
        out
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Text("c0".into()), Value::Null],
            vec![Value::Null, array(&[1.0, 2.0])],
        ]
    }
    fn pinned(executor: Executor) -> Vec<NaiveBayesModel> {
        vec![fit(&Self::estimator(0), &labeled_blobs(), executor)]
    }
}

pub struct KMeansEntry;

impl Entry for KMeansEntry {
    type Est = KMeans;
    type Model = KMeansModel;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::WarmStart(|e, m| e.clone().with_initial_centroids(m.centroids.clone()));
    const PREDICTS: Result<(), &'static str> = Ok(());
    // k-means++, `Random`, warm-started from the k-means++ centroids + 0.25
    // and capped at one iteration.
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[
        &[4095654637290687349, 13515110480387902489, 800, 4, 1],
        &[5084243930201216892, 17145922708540920193, 800, 11, 1],
        &[4095654637290687349, 13515110480387902489, 800, 2, 1],
        &[8698902507095743261, 10930315899678503811, 800, 1, 0],
    ];

    fn columns() -> Vec<Column> {
        vec![Column::new("x", ColumnType::DoubleArray)]
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        vec![array(&[g.float(-20.0, 20.0), g.float(-20.0, 20.0)])]
    }
    /// `k` of 1, 2 or 3, under either seeding.
    fn estimator(seed: u64) -> KMeans {
        let seeding = [SeedingMethod::Random, SeedingMethod::KMeansPlusPlus][seed as usize / 3 % 2];
        KMeans::new("x", 1 + seed as usize % 3)
            .unwrap()
            .with_seeding(seeding)
            .with_seed(seed)
            .with_max_iterations(8)
    }
    fn bits(m: &KMeansModel) -> Vec<u64> {
        let counts = [m.num_points, m.iterations].map(|n| n as u64);
        let mut out = vec![digest(&m.centroids.concat()), digest(&[m.inertia])];
        out.extend(counts.into_iter().chain([u64::from(m.converged)]));
        out
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![
            vec![array(&[f64::NAN, 0.0])],
            vec![array(&[f64::INFINITY, 0.0])],
            vec![Value::Null],
            vec![array(&[1.0])],
        ]
    }
    fn pinned(executor: Executor) -> Vec<KMeansModel> {
        let blobs = gaussian_blobs(800, 4, 3, 12.0, 4, 11).unwrap().table;
        let base = KMeans::new("coords", 4).unwrap().with_seed(3);
        let fit = |kmeans: KMeans| fit(&kmeans, &blobs, executor);
        let plus_plus = fit(base.clone().with_seeding(SeedingMethod::KMeansPlusPlus));
        let shifted = plus_plus.centroids.iter();
        let shifted = shifted.map(|c| c.iter().map(|x| x + 0.25).collect());
        let random = fit(base.clone().with_seeding(SeedingMethod::Random));
        let warm = fit(base.clone().with_initial_centroids(shifted.collect()));
        vec![plus_plus, random, warm, fit(base.with_max_iterations(1))]
    }
}

pub struct Igd;

type LeastSquaresIgd = IgdEstimator<LeastSquaresObjective>;

fn igd(max_epochs: usize) -> LeastSquaresIgd {
    IgdEstimator::new(LeastSquaresObjective::new("y", "x", 3)).with_config(IgdConfig {
        max_epochs,
        tolerance: 1e-6,
        schedule: StepSchedule::Constant(0.05),
    })
}

impl Entry for Igd {
    type Est = LeastSquaresIgd;
    type Model = IgdSummary;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::WarmStart(|e, m| e.clone().with_initial_model(m.model.clone()));
    const PREDICTS: Result<(), &'static str> =
        Err("its model is a raw vector; the objective, not the summary, gives it a meaning");
    // Least squares converging (at 200 epochs at most) and capped at 3.
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[
        &[2520848773536430947, 13705904285059026245, 17224528864126347438, 5, 1],
        &[1274374336063669580, 10267208076641729632, 17224528864126347438, 3, 0],
    ];

    fn columns() -> Vec<Column> {
        labeled_columns()
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        Linregr::row(g)
    }
    fn estimator(_: u64) -> LeastSquaresIgd {
        igd(5)
    }
    fn bits(m: &IgdSummary) -> Vec<u64> {
        let objectives = [m.objective_value, m.initial_objective_value];
        let mut out = vec![digest(&m.model)];
        out.extend(objectives.map(|v| digest(&[v])));
        out.extend([m.epochs as u64, u64::from(m.converged)]);
        out
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![
            vec![double(1.0), Value::Null],
            vec![double(1.0), array(&[1.0, 2.0])],
        ]
    }
    fn pinned(executor: Executor) -> Vec<IgdSummary> {
        let table = linear_regression_data(500, 3, 0.1, 4, 5).unwrap().table;
        [200, 3]
            .map(|epochs| fit(&igd(epochs), &table, executor))
            .into()
    }
}

pub struct Svm;

impl Entry for Svm {
    type Est = LinearSvm;
    type Model = SvmModel;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::None("Pegasos epochs over the shuffled rows have no incremental form");
    const PREDICTS: Result<(), &'static str> = Ok(());
    const PINNED: &'static [&'static [u64]] =
        &[&[16469378937794412634, 15934431600786207355, 5, 300]];

    fn columns() -> Vec<Column> {
        labeled_columns()
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        vec![double(g.below(3) as f64 - 1.0), array(&features(g, 3))]
    }
    fn estimator(seed: u64) -> LinearSvm {
        LinearSvm::new("y", "x").with_seed(seed).with_epochs(3)
    }
    fn bits(m: &SvmModel) -> Vec<u64> {
        let scalars = digest(&[m.lambda, m.final_objective]);
        let counts = [m.epochs, m.num_rows].map(|n| n as u64);
        [digest(&m.weights), scalars]
            .into_iter()
            .chain(counts)
            .collect()
    }
    /// Labels other than −1, 0 and 1, and a feature vector of another width.
    fn degenerate() -> Vec<Vec<Value>> {
        let row = |y: f64, x: &[f64]| vec![double(y), array(x)];
        vec![
            row(2.0, &[1.0, 0.0, 0.0]),
            row(0.3, &[1.0, 0.0, 0.0]),
            row(f64::NAN, &[1.0, 0.0, 0.0]),
            row(1.0, &[1.0, 0.0]),
        ]
    }
    fn pinned(executor: Executor) -> Vec<SvmModel> {
        let table = logistic_regression_data(300, 4, 4, 17).unwrap().table;
        let svm = LinearSvm::new("y", "x").with_epochs(5).with_seed(3);
        vec![fit(&svm, &table, executor)]
    }
}

/// Every number and label of a decision tree, node by node in pre-order.
fn tree_digest(node: &TreeNode, out: &mut Vec<u64>) {
    match node {
        TreeNode::Leaf {
            label,
            samples,
            purity,
        } => out.extend([
            digest_labels([label.as_str()]),
            *samples as u64,
            digest(&[*purity]),
        ]),
        TreeNode::Split {
            feature,
            threshold,
            gain_ratio,
            left,
            right,
        } => {
            out.extend([*feature as u64, digest(&[*threshold, *gain_ratio])]);
            tree_digest(left, out);
            tree_digest(right, out);
        }
    }
}

pub struct Tree;

impl Entry for Tree {
    type Est = DecisionTree;
    type Model = DecisionTreeModel;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::None("greedy splits over all rows have no incremental form");
    const PREDICTS: Result<(), &'static str> = Ok(());
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[&[
        2, 400, 0, 12899083350193501166, 6406328696632612572, 128, 12299727721494879672, 0,
        1933521545528030261, 6405202796725513733, 124, 12299727721494879672,
        6408017546493166218, 148, 12299727721494879672,
    ]];

    fn columns() -> Vec<Column> {
        NaiveBayesEntry::columns()
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        let x = [g.float(-5.0, 5.0), g.float(-5.0, 5.0), g.below(3) as f64];
        let label = ["neg", "pos"][usize::from(x[0] + g.float(-1.0, 1.0) > 0.0)];
        vec![Value::Text(label.into()), array(&x)]
    }
    fn estimator(_: u64) -> DecisionTree {
        DecisionTree::new("label", "x").with_max_depth(3)
    }
    fn bits(m: &DecisionTreeModel) -> Vec<u64> {
        let mut out = vec![m.num_features as u64, m.num_rows as u64];
        tree_digest(&m.root, &mut out);
        out
    }
    fn degenerate() -> Vec<Vec<Value>> {
        NaiveBayesEntry::degenerate()
    }
    fn pinned(executor: Executor) -> Vec<DecisionTreeModel> {
        let tree = DecisionTree::new("label", "x").with_max_depth(4);
        vec![fit(&tree, &labeled_blobs(), executor)]
    }
}

pub struct LowRank;

impl Entry for LowRank {
    type Est = LowRankFactorization;
    type Model = LowRankModel;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::None("seeded SGD epochs over all ratings have no incremental form");
    const PREDICTS: Result<(), &'static str> =
        Err("it scores (user, item) pairs, not a feature vector");
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] =
        &[&[11651114815139983093, 12206581307687905046, 2, 9505825438251595347, 157, 5]];

    fn columns() -> Vec<Column> {
        vec![
            Column::new("user_id", ColumnType::Int),
            Column::new("item_id", ColumnType::Int),
            Column::new("rating", ColumnType::Double),
        ]
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        let [user, item] = [g.below(5), g.below(5)].map(|id| Value::Int(id as i64));
        vec![user, item, double(g.float(-2.0, 2.0))]
    }
    fn estimator(seed: u64) -> LowRankFactorization {
        let estimator = LowRankFactorization::new("user_id", "item_id", "rating", 2).unwrap();
        estimator.with_epochs(3).with_seed(seed)
    }
    fn bits(m: &LowRankModel) -> Vec<u64> {
        let factors = [&m.user_factors, &m.item_factors].map(|f| digest(&f.concat()));
        let mut out = factors.to_vec();
        out.extend([m.rank as u64, digest(&[m.train_rmse])]);
        out.extend([m.num_ratings as u64, m.epochs as u64]);
        out
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![
            vec![Value::Null, Value::Int(0), double(1.0)],
            vec![Value::Int(0), Value::Int(0), Value::Null],
        ]
    }
    fn pinned(executor: Executor) -> Vec<LowRankModel> {
        let ratings = ratings_data(20, 15, 2, 0.5, 4, 19).unwrap();
        vec![fit(&Self::estimator(5).with_epochs(5), &ratings, executor)]
    }
}

pub struct LdaEntry;

impl Entry for LdaEntry {
    type Est = Lda;
    type Model = LdaModel;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::None("Gibbs sweeps over the whole corpus have no incremental form");
    const PREDICTS: Result<(), &'static str> =
        Err("its output is topic mixtures of the training corpus, not a per-row prediction");
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[&[
        3, 6695746628430533438, 9547729151799167559, 17274333556364126361, 8296012028959854394, 5,
    ]];

    fn columns() -> Vec<Column> {
        vec![Column::new("tokens", ColumnType::TextArray)]
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        let len = 1 + g.below(5);
        vec![texts("w", (0..len).map(|_| g.below(5)))]
    }
    fn estimator(seed: u64) -> Lda {
        let lda = Lda::new("tokens", 2).unwrap();
        lda.with_iterations(3).with_seed(seed)
    }
    fn bits(m: &LdaModel) -> Vec<u64> {
        let counts = |rows: &[Vec<u32>]| {
            let counts: Vec<f64> = rows.concat().into_iter().map(f64::from).collect();
            digest(&counts)
        };
        vec![
            m.num_topics as u64,
            digest_labels(m.vocabulary.iter().map(String::as_str)),
            counts(&m.topic_word),
            counts(&m.doc_topic),
            digest(&[m.alpha, m.beta]),
            m.iterations as u64,
        ]
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![vec![Value::Null]]
    }
    fn pinned(executor: Executor) -> Vec<LdaModel> {
        let corpus = document_corpus(30, 3, 5, 12, 4, 23).unwrap();
        let lda = Lda::new("tokens", 3).unwrap();
        vec![fit(&lda.with_iterations(5).with_seed(7), &corpus, executor)]
    }
}

pub struct AprioriEntry;

impl Entry for AprioriEntry {
    type Est = Apriori;
    type Model = AprioriModel;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::None("level-wise support passes over all baskets have no incremental form");
    const PREDICTS: Result<(), &'static str> =
        Err("its output is itemsets and rules, not a per-row prediction");
    const PINNED: &'static [&'static [u64]] =
        &[&[200, 30, 8591946255362302479, 31, 13244370357070607689]];

    fn columns() -> Vec<Column> {
        vec![Column::new("items", ColumnType::TextArray)]
    }
    /// Baskets of 0–4 items, duplicates included.
    fn row(g: &mut Gen) -> Vec<Value> {
        let len = g.below(5);
        vec![texts("item_", (0..len).map(|_| g.below(6)))]
    }
    fn estimator(_: u64) -> Apriori {
        let apriori = Apriori::new("items", 0.3, 0.5).unwrap();
        apriori.with_max_itemset_size(3)
    }
    fn bits(m: &AprioriModel) -> Vec<u64> {
        let items = |items: &[String]| digest_labels(items.iter().map(String::as_str));
        let itemsets: Vec<u64> = (m.itemsets.iter())
            .flat_map(|s| [items(&s.items), digest(&[s.support]), s.count])
            .collect();
        let rules: Vec<u64> = (m.rules.iter())
            .flat_map(|r| {
                let measures = digest(&[r.support, r.confidence, r.lift]);
                [items(&r.antecedent), items(&r.consequent), measures]
            })
            .collect();
        vec![
            m.num_transactions,
            m.itemsets.len() as u64,
            fold(&itemsets),
            m.rules.len() as u64,
            fold(&rules),
        ]
    }
    fn degenerate() -> Vec<Vec<Value>> {
        vec![vec![Value::Null]]
    }
    fn pinned(executor: Executor) -> Vec<AprioriModel> {
        let baskets = market_basket_data(200, 8, 4, 29).unwrap();
        let apriori = Apriori::new("items", 0.1, 0.4).unwrap();
        vec![fit(&apriori, &baskets, executor)]
    }
}

pub struct Crf;

impl Entry for Crf {
    type Est = CrfEstimator;
    type Model = ChainCrf;
    const GROUPED: Grouped<Self::Model> = Grouped::Gather;
    const REFRESH: Refresh<Self::Est, Self::Model> =
        Refresh::None("SGD epochs with per-segment model averaging have no incremental form");
    const PREDICTS: Result<(), &'static str> =
        Err("it labels whole sequences (Viterbi), not a feature vector");
    const PINNED: &'static [&'static [u64]] = &[&[399471804546107422]];

    fn columns() -> Vec<Column> {
        vec![
            Column::new("observations", ColumnType::IntArray),
            Column::new("labels", ColumnType::IntArray),
        ]
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        let labels: Vec<i64> = (0..g.below(6)).map(|_| g.below(2) as i64).collect();
        let observations = labels.iter().map(|l| l * 2 + g.below(2) as i64).collect();
        vec![Value::IntArray(observations), Value::IntArray(labels)]
    }
    fn estimator(_: u64) -> CrfEstimator {
        CrfEstimator::new("observations", "labels", 2, 4).with_epochs(3)
    }
    fn bits(m: &ChainCrf) -> Vec<u64> {
        vec![digest(m.weights())]
    }
    fn degenerate() -> Vec<Vec<Value>> {
        let row = |o: Vec<i64>, l: Vec<i64>| vec![Value::IntArray(o), Value::IntArray(l)];
        vec![
            row(vec![0, 1], vec![0, 1, 0]),
            row(vec![0, 1], vec![0, 2]),
            row(vec![0, 4], vec![0, 1]),
            vec![Value::Null, Value::Null],
        ]
    }
    fn pinned(executor: Executor) -> Vec<ChainCrf> {
        let schema = Schema::new(Crf::columns());
        let mut corpus = Table::new(schema, 2).unwrap();
        for s in 0..40_usize {
            let labels: Vec<i64> = (0..5 + s % 4).map(|t| ((t + s) % 2) as i64).collect();
            let observations = labels.iter().map(|&l| l * 2 + (s % 2) as i64).collect();
            let values = vec![Value::IntArray(observations), Value::IntArray(labels)];
            corpus.insert(Row::new(values)).unwrap();
        }
        vec![fit(&Self::estimator(0).with_epochs(10), &corpus, executor)]
    }
}

/// Every number and label a column profile reports.
fn column_profile_digest(profile: &ColumnProfile) -> Vec<u64> {
    let summary = |s: &madlib::stats::Summary| {
        let (count, moments, nulls) = s.to_parts();
        [count, digest(&moments), nulls]
    };
    let option = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
    match profile {
        ColumnProfile::Numeric {
            name,
            summary: s,
            median,
            percentile_05_95: (p05, p95),
        } => [
            &[digest_labels([name.as_str()])][..],
            &summary(s),
            &[option(*median), option(*p05), option(*p95)],
        ]
        .concat(),
        ColumnProfile::Categorical {
            name,
            non_null,
            nulls,
            distinct_exact,
            distinct_estimate,
            most_common,
            most_common_cm_estimate,
        } => vec![
            digest_labels([name.as_str()]),
            *non_null,
            *nulls,
            *distinct_exact as u64,
            digest(&[*distinct_estimate]),
            digest_labels(most_common.iter().map(|(v, _)| v.as_str())),
            digest(
                &most_common
                    .iter()
                    .map(|&(_, c)| c as f64)
                    .collect::<Vec<_>>(),
            ),
            *most_common_cm_estimate,
        ],
        ColumnProfile::Array {
            name,
            length_summary,
        } => [
            &[digest_labels([name.as_str()])][..],
            &summary(length_summary),
        ]
        .concat(),
    }
}

pub struct Profile;

impl Entry for Profile {
    type Est = Profiler;
    type Model = TableProfile;
    const GROUPED: Grouped<Self::Model> =
        Grouped::SinglePass(|ds| reference::aggregate(ds, &ProfileAggregate::new(ds.schema())));
    const REFRESH: Refresh<Self::Est, Self::Model> = Refresh::ViewBacked;
    const PREDICTS: Result<(), &'static str> =
        Err("a profile describes a table; it predicts nothing");
    const REJECTS_EMPTY: Result<(), &'static str> =
        Err("a profile of no row is well-defined: it reports zero counts");
    #[rustfmt::skip]
    const PINNED: &'static [&'static [u64]] = &[&[
        200, 6505985641176602797, 200, 14934795562552348202, 0, 4636526185122103296,
        4621256167635550208, 4640853862889029632, 4189665139550064378, 200, 0, 2,
        16788780921475677720, 7069904074851312702, 11477621443286395161, 108,
        7456554874281755377, 200, 7815959135499232262, 0,
    ]];

    fn columns() -> Vec<Column> {
        vec![
            Column::new("amount", ColumnType::Double),
            Column::new("category", ColumnType::Text),
        ]
    }
    fn row(g: &mut Gen) -> Vec<Value> {
        match g.below(4) {
            0 => vec![Value::Null, Value::Null],
            c => vec![
                double(g.float(-100.0, 100.0)),
                Value::Text(format!("cat{c}")),
            ],
        }
    }
    fn estimator(_: u64) -> Profiler {
        Profiler
    }
    fn bits(m: &TableProfile) -> Vec<u64> {
        let columns = m.columns.iter().flat_map(column_profile_digest);
        std::iter::once(m.row_count as u64).chain(columns).collect()
    }
    /// None: a profile takes any value of any column type.
    fn degenerate() -> Vec<Vec<Value>> {
        Vec::new()
    }
    fn pinned(executor: Executor) -> Vec<TableProfile> {
        vec![fit(
            &Profiler,
            &market_basket_data(200, 8, 4, 29).unwrap(),
            executor,
        )]
    }
}
