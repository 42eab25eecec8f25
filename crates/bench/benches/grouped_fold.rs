//! Grouped and filtered aggregation at `madbench`'s `grouped_zipf` key
//! shape: `(tenant, region)` keys drawn Zipf(1.1) over 4 096 ranks (region
//! = rank mod 8, 1 % NULL tenants), width-8 features, four segments hashed
//! on `tenant`.  Four cells: `train_grouped(linregr)` over
//! `group_by(tenant, region)`, a grouped `count(*)` over the same keys (the
//! routing and copying alone, no kernel work), the `region = 3` linregr fit
//! and a `region = 3` count (the filter's compaction alone).  The table has
//! 250 000 rows — a quarter of `grouped_zipf`'s — so a cell takes tens of
//! milliseconds; the mean ms per call is printed at the end.

use criterion::{black_box, criterion_group, Criterion};
use madlib_core::regress::LinearRegression;
use madlib_core::train::Session;
use madlib_engine::aggregate::CountAggregate;
use madlib_engine::expr::Predicate;
use madlib_engine::table::Distribution;
use madlib_engine::{Column, ColumnType, Database, Dataset, Row, Schema, Table, Value};

const ROWS: usize = 250_000;
const KEYS: usize = 4_096;
const WIDTH: usize = 8;
const CELLS: [&str; 4] = [
    "train_grouped",
    "grouped_count",
    "filtered_train",
    "filtered_count",
];

/// xorshift64 in [0, 1).
fn unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// `grouped_zipf`'s table shape at [`ROWS`] rows, loaded with 10 000-row
/// inserts.
fn table() -> Table {
    let schema = Schema::new(vec![
        Column::new("tenant", ColumnType::Text),
        Column::new("region", ColumnType::Int),
        Column::new("y", ColumnType::Double),
        Column::new("label", ColumnType::Double),
        Column::new("x", ColumnType::DoubleArray),
    ]);
    let hashed = Distribution::HashColumn("tenant".to_owned());
    let mut table = Table::with_distribution(schema, 4, hashed).unwrap();
    let mut cdf: Vec<f64> = (0..KEYS)
        .scan(0.0, |total, i| {
            *total += 1.0 / ((i + 1) as f64).powf(1.1);
            Some(*total)
        })
        .collect();
    let total = cdf[KEYS - 1];
    cdf.iter_mut().for_each(|c| *c /= total);
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let coef: Vec<f64> = (0..WIDTH).map(|_| 4.0 * unit(&mut state) - 2.0).collect();
    let mut rows = Vec::with_capacity(10_000);
    for i in 0..ROWS {
        let rank = cdf
            .partition_point(|&c| c <= unit(&mut state))
            .min(KEYS - 1);
        let tenant = if unit(&mut state) < 0.01 {
            Value::Null
        } else {
            Value::Text(format!("t{rank:05}"))
        };
        let x: Vec<f64> = (0..WIDTH).map(|_| 2.0 * unit(&mut state) - 1.0).collect();
        let y = x.iter().zip(&coef).map(|(a, b)| a * b).sum::<f64>() + 1e-5 * unit(&mut state);
        rows.push(Row::new(vec![
            tenant,
            Value::Int((rank % 8) as i64),
            Value::Double(y),
            Value::Double((y > 0.0) as i64 as f64),
            Value::DoubleArray(x),
        ]));
        if rows.len() == 10_000 || i + 1 == ROWS {
            table.insert_all(rows.drain(..)).unwrap();
        }
    }
    table
}

fn bench_grouped_fold(c: &mut Criterion) {
    let table = table();
    let session = Session::new(Database::new(4).unwrap());
    let linregr = LinearRegression::new("y", "x");
    let dataset = || Dataset::from_table(&table);
    let grouped = || dataset().group_by(["tenant", "region"]);
    let filtered = || dataset().filter(Predicate::column_eq("region", 3_i64));

    let mut group = c.benchmark_group("grouped_fold");
    group.sample_size(20);
    group.bench_function(CELLS[0], |b| {
        b.iter(|| black_box(session.train_grouped(&linregr, &grouped()).unwrap()))
    });
    group.bench_function(CELLS[1], |b| {
        b.iter(|| black_box(grouped().aggregate_per_group(&CountAggregate).unwrap()))
    });
    group.bench_function(CELLS[2], |b| {
        b.iter(|| black_box(session.train(&linregr, &filtered()).unwrap()))
    });
    group.bench_function(CELLS[3], |b| {
        b.iter(|| black_box(filtered().aggregate(&CountAggregate).unwrap()))
    });
    group.finish();
}

fn report(c: &mut Criterion) {
    bench_grouped_fold(c);
    println!("\nmean ms per call ({ROWS} rows, {KEYS} keys, 4 segments):");
    for cell in CELLS {
        let label = format!("grouped_fold/{cell}");
        let mean = c.mean_times().iter().find(|(l, _)| *l == label);
        let ms = mean.map_or(f64::NAN, |(_, d)| d.as_secs_f64() * 1e3);
        println!("{cell:<16}{ms:>10.2}");
    }
}

criterion_group!(benches, report);

fn main() {
    benches();
}
