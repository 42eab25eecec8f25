//! One run of one workload: set-up, the timed loop, the correctness checks.
//!
//! Only public API is driven (`Database`, `Session`, `Dataset`, estimators,
//! scorers).  Every timed call is wrapped by [`Bench`], which counts it as
//! attempted (and failed, if it returns an error) and records a span.

use crate::bench::{engine_error, Bench};
use crate::checks::{self, Checks};
use crate::gen::{self, RawData, FILTER_REGION};
use crate::host;
use crate::ingest::{DurableResult, Ingest};
use crate::json::Json;
use crate::mixed::Live;
use crate::probes;
use crate::schedule::Schedule;
use crate::scratch::ScratchDir;
use crate::stats::{median, quartiles, tail};
use crate::workload::{
    Workload, APPEND_BATCH, END_TO_END, FIT_ITERATIONS, KMEANS_K, PER_LAYER, PRELOAD_BATCH, TOP_K,
};
use madlib_core::cluster::{KMeans, KMeansModel};
use madlib_core::regress::{LinearRegression, LinearRegressionModel, LogisticRegression};
use madlib_core::score::{FeatureScorer, Predictor};
use madlib_core::Session;
use madlib_engine::expr::Predicate;
use madlib_engine::table::Distribution;
use madlib_engine::{Database, Executor, Similarity, Table, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub const TABLE: &str = "events";
/// The prefix table IRLS and k-means run on.
pub const SAMPLE: &str = "sample";
/// Catalog name of the incrementally maintained linregr model.
pub const LIVE_MODEL: &str = "live";

/// Share of `--seconds` the timed phases get in a traced run; the rest is
/// for the per-layer probes, so both kinds of run take about as long.
const TRACED_PHASE_SHARE: f64 = 0.4;

/// Set-up repeats per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Share of the measured seconds an arithmetic calibration loop gets; a
/// streaming loop takes six times as long per call and gets twice that.
const CALIBRATION_SHARE: f64 = 0.015;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub smoke: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth knowing about the run, printed on its own line.
    pub detail: Json,
}

pub fn linregr() -> LinearRegression {
    LinearRegression::new("y", "x")
}

pub fn irls() -> LogisticRegression {
    LogisticRegression::new("label", "x")
        .with_max_iterations(FIT_ITERATIONS)
        .with_tolerance(0.0)
}

pub fn kmeans(seed: u64) -> Result<KMeans, String> {
    Ok(KMeans::new("x", KMEANS_K)
        .map_err(|e| engine_error("KMeans::new", e))?
        .with_max_iterations(FIT_ITERATIONS)
        .with_reassignment_fraction(0.0)
        .with_seed(seed))
}

pub fn region_filter() -> Predicate {
    Predicate::column_eq("region", FILTER_REGION)
}

pub type LinregrScorer = FeatureScorer<Arc<LinearRegressionModel>>;

/// Everything set-up leaves behind for the timed phases.
pub struct Loaded {
    /// In-memory database holding [`TABLE`] and [`SAMPLE`].
    pub db: Database,
    pub session: Session,
    /// The linregr model fitted on [`TABLE`] with the default executor.
    pub model: Arc<LinearRegressionModel>,
}

pub fn create_events(
    db: &Database,
    w: &Workload,
    name: &str,
) -> Result<(), madlib_engine::EngineError> {
    let distribution = if w.hash_on_tenant {
        Distribution::HashColumn("tenant".to_owned())
    } else {
        Distribution::RoundRobin
    };
    db.create_table_distributed(name, gen::schema(), distribution)
}

/// Loads rows `0..rows` of `raw` through `append_rows` in `batch`-row calls.
pub fn load_rows(
    bench: &mut Bench,
    db: &Database,
    name: &str,
    raw: &RawData,
    rows: usize,
    batch: usize,
) -> Result<(), String> {
    let mut at = 0;
    while at < rows {
        let end = (at + batch).min(rows);
        let built = raw.row_range(at..end);
        bench.must("setup:append_rows", || db.append_rows(name, built))?;
        at = end;
    }
    Ok(())
}

/// One complete set-up: loads both databases, fits the serving model, trains
/// the incremental ones.  Returns the in-memory side and the durable database
/// (its own [`TABLE`], preloaded, [`LIVE_MODEL`] trained).
fn load(
    bench: &mut Bench,
    w: &Workload,
    main: &RawData,
    preload: &RawData,
    durable_dir: &std::path::Path,
) -> Result<(Loaded, Database), String> {
    let (db, _) = bench.must("setup:Database::new", || Database::new(w.segments))?;
    bench.must("setup:create_table", || create_events(&db, w, TABLE))?;
    load_rows(bench, &db, TABLE, main, w.shape.rows, 4 * PRELOAD_BATCH)?;
    if w.sample_rows < w.shape.rows {
        bench.must("setup:create_table", || create_events(&db, w, SAMPLE))?;
        load_rows(bench, &db, SAMPLE, main, w.sample_rows, 4 * PRELOAD_BATCH)?;
    }
    let session = Session::new(db.clone());
    let (dataset, _) = bench.must("setup:Database::dataset", || db.dataset(TABLE))?;
    let (model, _) = bench.must("setup:Session::train", || {
        session.train(&linregr(), &dataset)
    })?;
    let serial = Session::new(db.clone()).with_executor(Executor::serial());
    bench.must("setup:Session::train_incremental", || {
        serial.train_incremental(&linregr(), TABLE, LIVE_MODEL)
    })?;

    let (durable, _) = bench.must("setup:Database::open", || {
        Database::open(durable_dir, w.segments)
    })?;
    bench.must("setup:create_table", || create_events(&durable, w, TABLE))?;
    let preload_rows = w.durable.preload_rows;
    load_rows(bench, &durable, TABLE, preload, preload_rows, PRELOAD_BATCH)?;
    let durable_session = Session::new(durable.clone());
    bench.must("setup:Session::train_incremental", || {
        durable_session.train_incremental(&linregr(), TABLE, LIVE_MODEL)
    })?;

    let loaded = Loaded {
        db,
        session,
        model: Arc::new(model),
    };
    Ok((loaded, durable))
}

/// The name of the table the iterative fits run on.
pub fn sample_table(w: &Workload) -> &'static str {
    if w.sample_rows < w.shape.rows {
        SAMPLE
    } else {
        TABLE
    }
}

/// The feature vector at `position` of the segment-then-row order scans
/// return rows in, read straight from the chunks.
fn features_at(table: &Table, mut position: usize) -> Option<&[f64]> {
    for s in 0..table.num_segments() {
        let segment = table.segment(s);
        if position >= segment.len() {
            position -= segment.len();
            continue;
        }
        for chunk in segment.chunks() {
            if position < chunk.len() {
                return chunk
                    .double_arrays(gen::col::X)
                    .ok()
                    .map(|x| x.row(position));
            }
            position -= chunk.len();
        }
    }
    None
}

/// Brute-force top-k by dot product over the table's chunks: left-to-right
/// accumulation (what `batch_dot` is bit-identical to), best score first,
/// ties to the earlier scan position.
fn brute_force_top_k(table: &Table, query: &[f64], k: usize) -> Vec<f64> {
    let mut scores: Vec<(f64, usize)> = Vec::with_capacity(table.row_count());
    for s in 0..table.num_segments() {
        for chunk in table.segment(s).chunks() {
            let Ok(x) = chunk.double_arrays(gen::col::X) else {
                continue;
            };
            for i in 0..chunk.len() {
                let score: f64 = x.row(i).iter().zip(query).map(|(a, b)| a * b).sum();
                scores.push((score, scores.len()));
            }
        }
    }
    scores.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scores.truncate(k);
    scores.into_iter().map(|(score, _)| score).collect()
}

fn coef_of_group(
    models: &madlib_core::GroupedModels<LinearRegressionModel>,
    key: &madlib_engine::GroupKey,
) -> Vec<f64> {
    models
        .get_key(key)
        .map(|m| m.coef.clone())
        .unwrap_or_default()
}

/// The train and serve checks on the in-memory table.
#[allow(clippy::too_many_arguments)]
fn train_and_serve_checks(
    bench: &mut Bench,
    checks: &mut Checks,
    w: &Workload,
    loaded: &Loaded,
    main: &RawData,
    scored: &[Value],
    top_k: &[f64],
    query: &[f64],
    smoke: bool,
) -> Result<(), String> {
    let (dataset, _) = bench.must("check:Database::dataset", || loaded.db.dataset(TABLE))?;
    checks.record(
        "coefficients_within_1e-6_of_generator",
        checks::coefficients_recovered(&loaded.model.coef, &main.coef, 1e-6),
    );
    let serial = dataset.reborrow().with_executor(Executor::serial());
    let (serial_model, _) = bench.must("check:Session::train", || {
        loaded.session.train(&linregr(), &serial)
    })?;
    checks.record(
        "parallel_is_serial_bits",
        checks::same_bits(
            "parallel vs serial coefficients",
            &loaded.model.coef,
            &serial_model.coef,
        ),
    );

    let grouped = dataset.reborrow().group_by(["tenant", "region"]);
    let (models, _) = bench.must("check:Session::train_grouped", || {
        loaded.session.train_grouped(&linregr(), &grouped)
    })?;
    let keys = checks::distinct_keys(&main.tenant[..w.shape.rows], &main.region[..w.shape.rows]);
    checks.record(
        "one_model_per_distinct_key",
        checks::one_model_per_key(models.len(), keys),
    );
    let all_keys: Vec<_> = models.keys().cloned().collect();
    let mut groups_ok = Ok(());
    for pick in [0, all_keys.len() / 2, all_keys.len() - 1] {
        let key = &all_keys[pick];
        let only = dataset.reborrow().filter(Predicate::columns_are_key(
            ["tenant", "region"],
            key.clone(),
        ));
        let (alone, _) = bench.must("check:Session::train", || {
            loaded.session.train(&linregr(), &only)
        })?;
        groups_ok = groups_ok.and(checks::same_bits(
            "grouped vs filter-then-fit coefficients",
            &coef_of_group(&models, key),
            &alone.coef,
        ));
    }
    checks.record("sampled_groups_are_filter_then_fit_bits", groups_ok);

    let table = dataset.table();
    let samples = if smoke { 1_000 } else { 10_000 };
    let mut rng = gen::Rng::new(main.rows() as u64 ^ 0x5EED);
    let positions: Vec<usize> = (0..samples).map(|_| rng.below(table.row_count())).collect();
    let mut expected = Vec::with_capacity(samples);
    for &p in &positions {
        let x = features_at(table, p).ok_or_else(|| format!("no row at scan position {p}"))?;
        expected.push(
            loaded
                .model
                .predict_value(x)
                .map_err(|e| engine_error("predict_value", e))?,
        );
    }
    checks.record(
        "sampled_scores_are_row_predict_bits",
        checks::sampled_scores_match(scored, &positions, &expected),
    );
    checks.record(
        "top_k_is_brute_force",
        checks::top_k_matches(top_k, &brute_force_top_k(table, query, TOP_K)),
    );
    Ok(())
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Slots of the interleaved schedule, one per repeated call.
mod slot {
    pub const LINREGR: usize = 0;
    pub const IRLS: usize = 1;
    pub const KMEANS: usize = 2;
    pub const FILTER: usize = 3;
    pub const SCORE: usize = 4;
    pub const TOP_K: usize = 5;
    pub const APPEND: usize = 6;
    /// Four calibration loops, ordered as `host::CALIBRATION_REFERENCE_S`.
    pub const CALIBRATION: usize = 7;
    pub const NAMES: [&str; 11] = [
        "Session::train",
        "Session::train(irls)",
        "Session::train(kmeans)",
        "Session::train(filtered)",
        "Dataset::score",
        "Dataset::top_k_by_score",
        "live:append_round",
        "host:calibration(cpu x 1)",
        "host:calibration(mem x 1)",
        "host:calibration(cpu x cores)",
        "host:calibration(mem x cores)",
    ];
}

/// The per-call time a throughput is computed from: the **first quartile**
/// of the timed calls.  On a shared host interference only ever adds time,
/// and it comes in bursts that can cover most of a run; the first quartile is
/// still a call the engine really completed that fast, but it stays put
/// until more than three quarters of the calls are disturbed (a median moves
/// at one half).  A single sample is its own first quartile.
fn typical(samples: &[f64]) -> f64 {
    quartiles(samples).map_or_else(
        || samples.iter().copied().fold(f64::NAN, f64::min),
        |[q1, _, _]| q1,
    )
}

fn estimators(samples: &[f64]) -> Json {
    Json::obj([
        ("n", Json::Num(samples.len() as f64)),
        (
            "min",
            Json::Num(samples.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("q1", Json::Num(typical(samples))),
        ("median", Json::Num(median(samples))),
    ])
}

/// Runs the workload once.
///
/// # Errors
/// Returns a description when an engine call fails or a repeated call has no
/// sample — no result is printed then.
#[allow(clippy::too_many_lines)]
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let w = &args.workload;
    let scratch = ScratchDir::create(args.seed)?;
    let mut bench = Bench::new(args.trace);
    let mut checks = Checks::default();
    let run_started = Instant::now();

    // Inputs: a pure function of the seed.
    let main = gen::generate(&w.shape, w.shape.rows, args.seed, 0);
    let preload = gen::generate(&w.shape, w.durable.preload_rows, args.seed, 1);
    let d = w.durable;
    let durable_appends = d.cycles * d.appenders * d.appends_per_cycle + d.tail_appends;
    let stream_rows = durable_appends.max(w.live_appends) * APPEND_BATCH;
    let stream = gen::generate(&w.shape, stream_rows, args.seed, 2);
    let generate_s = run_started.elapsed().as_secs_f64();

    // Set-up, several times; the last one is kept.  Its time is what was
    // spent inside engine calls (building the rows is the benchmark's cost).
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    let durable_dir = scratch.path().join("live");
    for _ in 0..SETUPS {
        drop(kept.take());
        scratch.subdir("live")?;
        let before = bench.engine_seconds;
        let open = bench.tracer.begin("setup");
        kept = Some(load(&mut bench, w, &main, &preload, &durable_dir)?);
        bench.tracer.end(open);
        setup_s.push(bench.engine_seconds - before);
    }
    let (loaded, durable) = kept.expect("SETUPS > 0");
    let mut ingest = Ingest::new(durable, durable_dir, d, &preload, &stream);

    let phase_seconds = if args.trace {
        args.seconds * TRACED_PHASE_SHARE
    } else {
        args.seconds
    };
    let session = &loaded.session;
    let (events, _) = bench.must("Database::dataset", || loaded.db.dataset(TABLE))?;
    let (sample, _) = bench.must("Database::dataset", || loaded.db.dataset(sample_table(w)))?;
    let grouped = events.reborrow().group_by(["tenant", "region"]);
    let filtered = events.reborrow().filter(region_filter());
    let scorer: LinregrScorer = FeatureScorer::new(Arc::clone(&loaded.model), "x");
    let clustering = kmeans(args.seed)?;
    let query: Vec<f64> = main.features(main.rows() / 2).to_vec();
    let mut live = Live::new(&mut bench, &loaded, &stream, w.live_appends, w.concurrent)?;

    // What the repeated calls leave behind for the checks and the probes.
    let mut irls_iterations = 0;
    let mut kmeans_model: Option<KMeansModel> = None;
    let mut scored: Vec<Value> = Vec::new();
    let mut top_k: Vec<f64> = Vec::new();

    // The timed loop: train and serve calls interleaved by share, with the
    // ingest cycles spread evenly through it.
    let shares = [
        w.shares.linregr,
        w.shares.irls,
        w.shares.kmeans,
        w.shares.filter,
        w.shares.score,
        w.shares.topk,
        w.shares.append,
        CALIBRATION_SHARE,
        2.0 * CALIBRATION_SHARE,
        CALIBRATION_SHARE,
        2.0 * CALIBRATION_SHARE,
    ];
    let calibration = host::Calibration::new();
    let cores = host::cores();
    let mut schedule = Schedule::new(&shares, phase_seconds);
    while let Some(next) = schedule.next() {
        while ingest.cycles_done() < d.cycles
            && schedule.progress() >= (ingest.cycles_done() as f64 + 0.5) / d.cycles as f64
        {
            ingest.cycle(&mut bench)?;
        }
        let warming = schedule.warming(next);
        let record = !warming && bench.records(schedule.samples(next).len());
        bench.tracer.set_recording(record);
        let name = slot::NAMES[next];
        let outcome = match next {
            slot::LINREGR if w.grouped_train => bench
                .must("Session::train_grouped", || {
                    session.train_grouped(&linregr(), &grouped)
                })
                .map(|(models, s)| {
                    std::hint::black_box(models);
                    s
                }),
            slot::LINREGR => {
                bench
                    .must(name, || session.train(&linregr(), &events))
                    .map(|(model, s)| {
                        std::hint::black_box(model);
                        s
                    })
            }
            slot::IRLS => bench
                .must(name, || session.train(&irls(), &sample))
                .map(|(model, s)| {
                    irls_iterations = model.num_iterations;
                    s
                }),
            slot::KMEANS => bench
                .must(name, || session.train(&clustering, &sample))
                .map(|(model, s)| {
                    kmeans_model = Some(model);
                    s
                }),
            slot::FILTER => bench
                .must(name, || session.train(&linregr(), &filtered))
                .map(|(model, s)| {
                    std::hint::black_box(model);
                    s
                }),
            slot::SCORE => bench.must(name, || events.score(&scorer)).map(|(all, s)| {
                scored = all;
                s
            }),
            slot::APPEND => live.round(&mut bench, !warming),
            slot::TOP_K => bench
                .must(name, || {
                    events.top_k_by_score("x", &query, TOP_K, Similarity::Dot)
                })
                .map(|(best, s)| {
                    top_k = best.iter().map(|(_, score)| *score).collect();
                    s
                }),
            loop_ @ slot::CALIBRATION.. => {
                let loop_ = loop_ - slot::CALIBRATION;
                Ok(calibration.run(loop_.is_multiple_of(2), if loop_ < 2 { 1 } else { cores }))
            }
        };
        bench.tracer.set_recording(args.trace);
        let seconds = outcome?;
        if schedule.record(next, seconds) {
            bench.note_iteration(name, record, seconds);
        }
    }
    let train_s = schedule.samples(slot::LINREGR);
    let irls_s = schedule.samples(slot::IRLS);
    let kmeans_s = schedule.samples(slot::KMEANS);
    let filter_s = schedule.samples(slot::FILTER);
    let score_s = schedule.samples(slot::SCORE);
    let topk_s = schedule.samples(slot::TOP_K);
    let kmeans_iterations = kmeans_model.as_ref().map_or(0, |m| m.iterations);

    if w.concurrent {
        // The scorer ran inside the append rounds; one plain scan for the
        // serve checks.
        scored = bench.must("Dataset::score", || events.score(&scorer))?.0;
    }
    let live = live.finish(&mut bench, &mut checks)?;
    train_and_serve_checks(
        &mut bench,
        &mut checks,
        w,
        &loaded,
        &main,
        &scored,
        &top_k,
        &query,
        args.smoke,
    )?;
    drop(scored);

    // Per-layer probes on the same tables (traced run only).
    let mut per_layer = Vec::new();
    if args.trace {
        let context = probes::Context {
            w,
            loaded: &loaded,
            main: &main,
            stream: &stream,
            scratch: &scratch,
            seconds: args.seconds,
            smoke: args.smoke,
            train_s: typical(train_s),
            irls_iterations,
            kmeans_iterations,
            kmeans_model,
        };
        per_layer = probes::run(&mut bench, &context)?;
    }

    // The WAL tail, the crash, the recoveries.
    let durable: DurableResult = ingest.finish(&mut bench, &mut checks, &scratch)?;

    // The host's speed during this run, from the calibration loops sampled
    // throughout it.  Every reported time is divided by the factor for the
    // number of threads its call keeps busy.
    let calibration_s: [f64; 4] =
        std::array::from_fn(|i| typical(schedule.samples(slot::CALIBRATION + i)));
    let host_speed = host::HostSpeed::from_loops(calibration_s);
    let serial = |raw: f64| raw / host_speed.factor(0.0);
    let parallel = |raw: f64| raw / host_speed.factor(1.0);
    // k-means materialises the points on one thread, then scans in parallel.
    let half = |raw: f64| raw / host_speed.factor(0.5);

    let rows = w.shape.rows as f64;
    let sample_rows = w.sample_rows as f64;
    let score_s_per_row = if w.concurrent {
        typical(&live.score_s_per_row)
    } else {
        typical(score_s) / rows
    };
    let restart_s: Vec<f64> = durable
        .recover_s
        .iter()
        .zip(&durable.rebuild_s)
        .map(|(r, b)| r + b)
        .collect();
    let (rounds, scoring) = if w.concurrent {
        // Appender and scorer keep two threads busy.
        (
            parallel(typical(&live.append_round_s)),
            parallel(score_s_per_row),
        )
    } else {
        (
            serial(typical(&live.append_round_s)),
            parallel(score_s_per_row),
        )
    };
    let end_to_end = [
        ("setup_s", serial(median(&setup_s))),
        ("train_rows_per_s", rows / parallel(typical(train_s))),
        (
            "irls_rows_per_s",
            sample_rows * irls_iterations as f64 / parallel(typical(irls_s)),
        ),
        (
            "kmeans_rows_per_s",
            sample_rows * kmeans_iterations as f64 / half(typical(kmeans_s)),
        ),
        ("filter_rows_per_s", rows / parallel(typical(filter_s))),
        ("score_rows_per_s", 1.0 / scoring),
        ("topk_rows_per_s", rows / parallel(typical(topk_s))),
        ("append_rows_per_s", live.rows_per_round as f64 / rounds),
        ("refresh_p50_us", us(serial(typical(&live.refresh_p50_s)))),
        ("recover_s", serial(median(&durable.recover_s))),
        ("restart_to_model_s", serial(median(&restart_s))),
        (
            "stored_bytes_per_user_byte",
            durable.stored_bytes as f64 / durable.user_bytes as f64,
        ),
        ("peak_rss_mb", host::peak_rss_mb()),
    ];

    let mut metrics: Vec<Metric> = Vec::new();
    if args.trace {
        let sum = |samples: &[f64]| samples.iter().sum::<f64>();
        let phases = [
            sum(train_s) + sum(irls_s) + sum(kmeans_s) + sum(filter_s),
            sum(score_s) + sum(topk_s),
            sum(&live.append_round_s) + durable.ingest_wall_s + sum(&durable.checkpoint_s),
            sum(&restart_s),
        ];
        per_layer.extend(probes::phase_metrics(phases));
        per_layer.extend(probes::host_speed_metrics(host_speed, calibration_s));
        per_layer.extend(probes::durable_metrics(&durable));
        per_layer.push(probes::metric(
            "bench.trace_overhead_share",
            bench.trace_overhead_share(),
            "ratio",
        ));
        // Report exactly the table's metrics, in the table's order.
        for spec in &PER_LAYER {
            let found = per_layer
                .iter()
                .position(|m| m.name == spec.name)
                .ok_or_else(|| format!("no probe measured {}", spec.name))?;
            metrics.push(per_layer.swap_remove(found));
        }
        if let Some(extra) = per_layer.first() {
            return Err(format!("{} is not in the per-layer table", extra.name));
        }
    } else {
        for (spec, (name, value)) in END_TO_END.iter().zip(end_to_end) {
            assert_eq!(spec.name, name, "metric table and run disagree");
            metrics.push(Metric {
                name: name.to_owned(),
                value,
                unit: spec.unit,
            });
        }
    }
    let not_finite: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    checks.record(
        "every_metric_is_finite",
        if not_finite.is_empty() {
            Ok(())
        } else {
            Err(not_finite.join(", "))
        },
    );

    if let Some(path) = &args.trace_out {
        std::fs::write(path, bench.tracer.to_json_lines())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let commit_tail = tail(&durable.append_s);
    let count = |n: usize| Json::Num(n as f64);
    let samples = Json::obj([
        ("setup", count(setup_s.len())),
        ("train", estimators(train_s)),
        ("irls", estimators(irls_s)),
        ("kmeans", estimators(kmeans_s)),
        ("filter", estimators(filter_s)),
        ("score", estimators(score_s)),
        ("topk", estimators(topk_s)),
        ("append_round", estimators(&live.append_round_s)),
        ("refresh_p50", estimators(&live.refresh_p50_s)),
        (
            "calibration_cpu_1",
            estimators(schedule.samples(slot::CALIBRATION)),
        ),
        (
            "calibration_mem_1",
            estimators(schedule.samples(slot::CALIBRATION + 1)),
        ),
        (
            "calibration_cpu_n",
            estimators(schedule.samples(slot::CALIBRATION + 2)),
        ),
        (
            "calibration_mem_n",
            estimators(schedule.samples(slot::CALIBRATION + 3)),
        ),
        ("commit", count(durable.append_s.len())),
        ("refresh", count(durable.refresh_s.len())),
        ("checkpoint", estimators(&durable.checkpoint_s)),
        ("recover", estimators(&durable.recover_s)),
    ]);
    let detail = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("host", host::metadata(scratch.path())),
        (
            "flush_policy",
            Json::str("engine default: group commit on, one fdatasync per commit group"),
        ),
        ("wall_s", Json::Num(run_started.elapsed().as_secs_f64())),
        (
            "host_speed",
            Json::obj([
                ("serial", Json::Num(host_speed.serial)),
                ("parallel", Json::Num(host_speed.parallel)),
            ]),
        ),
        (
            "durable",
            Json::obj([
                ("commit_p50_us", Json::Num(us(median(&durable.append_s)))),
                (
                    "append_rows_per_s",
                    Json::Num(median(&durable.cycle_rows_per_s)),
                ),
                ("checkpoint_s", Json::Num(median(&durable.checkpoint_s))),
                ("refresh_p50_us", Json::Num(us(median(&durable.refresh_s)))),
            ]),
        ),
        ("generate_s", Json::Num(generate_s)),
        ("samples", samples),
        (
            "commit_tail",
            commit_tail.map_or(Json::Null, |(pct, value)| {
                Json::obj([("percentile", Json::Num(pct)), ("us", Json::Num(us(value)))])
            }),
        ),
        ("recovered_rows", count(durable.recovered_rows as usize)),
        ("spans", count(bench.tracer.spans().len())),
        (
            "checks",
            Json::Obj(
                checks
                    .results()
                    .iter()
                    .map(|(name, verdict)| {
                        let value = match verdict {
                            Ok(()) => Json::str("ok"),
                            Err(reason) => Json::Str(format!("FAILED: {reason}")),
                        };
                        ((*name).to_owned(), value)
                    })
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(m.value)))
                    .collect(),
            ),
        ),
    ]);

    Ok(RunOutput {
        correct: checks.all_passed() && bench.failed == 0,
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
        detail,
    })
}
