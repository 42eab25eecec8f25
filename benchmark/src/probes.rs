//! The per-layer numbers of the traced run: direct calls into each layer's
//! public functions, on the workload's own tables, after the timed phases.
//!
//! Layers are the repository's modules; every probe wraps its calls in spans
//! named `<layer>:<function>`, and a metric is computed from the very
//! durations those spans record, so the numbers and the written trace cannot
//! disagree.

use crate::bench::{engine_error, Bench};
use crate::gen::{self, col, RawData};
use crate::host;
use crate::ingest::{append_client, batches, run_clients, ClientLog, DurableResult};
use crate::mixed::{concurrent_round, reset_live_table, Scoring};
use crate::run::{
    create_events, linregr, load_rows, region_filter, sample_table, LinregrScorer, Loaded, Metric,
    TABLE,
};
use crate::scratch::ScratchDir;
use crate::stats::{median, tail};
use crate::workload::{Workload, APPEND_BATCH, KMEANS_K, PER_LAYER, PRELOAD_BATCH, TOP_K};
use madlib_core::cluster::KMeansModel;
use madlib_core::score::FeatureScorer;
use madlib_core::Session;
use madlib_engine::aggregate::CountAggregate;
use madlib_engine::chunk::CHUNK_CAPACITY;
use madlib_engine::group::partition_by_group;
use madlib_engine::materialize::MaterializedAggregate;
use madlib_engine::scan::{self, StealGranularity};
use madlib_engine::{
    Aggregate, Database, Dataset, Executor, Row, RowChunk, Scorer, Similarity, Table, Value,
};
use madlib_linalg::kernels;
use madlib_linalg::DenseMatrix;
use madlib_sketch::profile::DatasetProfileExt;
use std::sync::Arc;
use std::time::Instant;

pub struct Context<'a> {
    pub w: &'a Workload,
    pub loaded: &'a Loaded,
    pub main: &'a RawData,
    pub stream: &'a RawData,
    pub scratch: &'a ScratchDir,
    pub seconds: f64,
    pub smoke: bool,
    /// Median of the workload's (default-executor) train call.
    pub train_s: f64,
    pub irls_iterations: usize,
    pub kmeans_iterations: usize,
    pub kmeans_model: Option<KMeansModel>,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

fn m(name: &str, value: f64) -> Metric {
    let spec = PER_LAYER
        .iter()
        .find(|spec| spec.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
    metric(name, value, spec.unit)
}

/// A standalone table of the benchmark's schema holding `rows`.
fn table_of(cx: &Context, rows: Vec<Row>) -> Result<Table, String> {
    let mut table =
        Table::new(gen::schema(), cx.w.segments).map_err(|e| engine_error("Table::new", e))?;
    table
        .insert_all(rows)
        .map_err(|e| engine_error("Table::insert", e))?;
    Ok(table)
}

fn chunks_of(table: &Table) -> impl Iterator<Item = &RowChunk> {
    (0..table.num_segments()).flat_map(|s| table.segment(s).chunks().iter().map(|c| &**c))
}

/// Repeats a whole-table pass until `budget_s` is used (at least once, at
/// most five times) and returns the median pass time.
fn passes(budget_s: f64, mut pass: impl FnMut() -> f64) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || (times.len() < 5 && started.elapsed().as_secs_f64() < budget_s) {
        times.push(pass());
    }
    median(&times)
}

/// Measured bandwidth of the host: the roofline for every GB/s below.
fn host_probe(cx: &Context, out: &mut Vec<Metric>) -> f64 {
    let elements = if cx.smoke { 1 << 20 } else { 1 << 24 };
    let cores = host::cores();
    let measured = host::bandwidth(elements, 4, &[1, cores]);
    let ((copy, triad), (_, triad_all)) = (measured[0], measured[1]);
    out.push(m("host.cores", cores as f64));
    out.push(m("host.copy_gb_per_s", copy));
    out.push(m("host.triad_gb_per_s", triad));
    out.push(m("host.triad_all_cores_gb_per_s", triad_all));
    triad
}

/// The IRLS, k-means and scoring kernels, called directly on the table's own
/// chunk buffers.  Returns the seconds of one `batch_dot` pass.
fn kernel_probe(bench: &mut Bench, cx: &Context, table: &Table, out: &mut Vec<Metric>) -> f64 {
    let width = cx.w.shape.width;
    let rows = table.row_count() as f64;
    let budget = cx.seconds * 0.02;
    let tracer = &mut bench.tracer;
    let weighted = passes(budget, || {
        let mut acc = DenseMatrix::zeros(width, width);
        let weights = vec![0.25; CHUNK_CAPACITY];
        let mut total = 0.0;
        for chunk in chunks_of(table) {
            if let Ok(x) = chunk.double_arrays(col::X) {
                let open = tracer.begin("linalg.kernels:weighted_rank_k_update_lower");
                kernels::weighted_rank_k_update_lower(
                    &mut acc,
                    x.flat_values(),
                    &weights[..chunk.len()],
                    width,
                );
                total += tracer.end(open);
            }
        }
        std::hint::black_box(&acc);
        total
    });
    let centroids: Vec<Vec<f64>> = (0..KMEANS_K)
        .map(|i| cx.main.features(i).to_vec())
        .collect();
    let closest = passes(budget, || {
        let mut assigned = vec![0usize; CHUNK_CAPACITY];
        let mut total = 0.0;
        for chunk in chunks_of(table) {
            if let Ok(x) = chunk.double_arrays(col::X) {
                let open = tracer.begin("linalg.kernels:batch_closest_column");
                kernels::batch_closest_column(
                    &centroids,
                    x.flat_values(),
                    width,
                    &mut assigned[..chunk.len()],
                );
                total += tracer.end(open);
            }
        }
        std::hint::black_box(&assigned);
        total
    });
    let weights = &cx.loaded.model.coef;
    let dot = passes(budget, || {
        let mut scores = vec![0.0; CHUNK_CAPACITY];
        let mut total = 0.0;
        for chunk in chunks_of(table) {
            if let Ok(x) = chunk.double_arrays(col::X) {
                let open = tracer.begin("linalg.kernels:batch_dot");
                kernels::batch_dot(x.flat_values(), weights, &mut scores[..chunk.len()]);
                total += tracer.end(open);
            }
        }
        std::hint::black_box(&scores);
        total
    });

    let w = width as f64;
    // Lower triangle w(w+1)/2 multiply-adds per row, and one more multiply
    // per row and column for the weight.
    out.push(m(
        "linalg.weighted_rank_k.gflops",
        rows * (w * (w + 1.0) + w) / weighted / 1e9,
    ));
    out.push(m("linalg.closest_column.mrows_per_s", rows / closest / 1e6));
    out.push(m("linalg.batch_dot.gb_per_s", rows * w * 8.0 / dot / 1e9));
    dot
}

/// One serial pass of the linregr kernels — rank-k and Xᵀy — over every
/// chunk; returns the seconds of each.
fn linregr_kernels_pass(bench: &mut Bench, table: &Table, width: usize) -> (f64, f64) {
    let mut xtx = DenseMatrix::zeros(width, width);
    let mut xty = vec![0.0; width];
    let (mut rank_k_s, mut xty_s) = (0.0, 0.0);
    for chunk in chunks_of(table) {
        if let (Ok(x), Ok(y)) = (chunk.double_arrays(col::X), chunk.doubles(col::Y)) {
            let open = bench.tracer.begin("linalg.kernels:rank_k_update_lower");
            kernels::rank_k_update_lower(&mut xtx, x.flat_values(), width);
            rank_k_s += bench.tracer.end(open);
            let open = bench.tracer.begin("linalg.kernels:xty_update");
            kernels::xty_update(&mut xty, x.flat_values(), y.values, width);
            xty_s += bench.tracer.end(open);
        }
    }
    std::hint::black_box((&xtx, &xty));
    (rank_k_s, xty_s)
}

/// `Aggregate::{transition_chunk, merge, finalize}` of the linregr aggregate,
/// serially, with the executor's merge structure (one state per segment).
fn aggregate_probe(
    bench: &mut Bench,
    cx: &Context,
    table: &Table,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let aggregate = linregr();
    let schema = table.schema();
    let tracer = &mut bench.tracer;
    let mut transition = 0.0;
    let mut states = Vec::new();
    for s in 0..table.num_segments() {
        let mut state = aggregate.initial_state();
        for chunk in table.segment(s).chunks() {
            let open = tracer.begin("engine.aggregate:transition_chunk");
            let result = aggregate.transition_chunk(&mut state, chunk, schema);
            transition += tracer.end(open);
            result.map_err(|e| engine_error("transition_chunk", e))?;
        }
        states.push(state);
    }
    let open = tracer.begin("engine.aggregate:merge");
    let merged = states
        .into_iter()
        .reduce(|left, right| aggregate.merge(left, right))
        .ok_or("a table without segments")?;
    let merge = tracer.end(open);

    // Finalize is the eigendecomposition; time it on its own as well.
    let mut finalize = Vec::new();
    for _ in 0..if cx.smoke { 3 } else { 9 } {
        let state = merged.clone();
        let open = tracer.begin("linalg.decomposition:finalize");
        let result = aggregate.finalize(state);
        finalize.push(tracer.end(open));
        std::hint::black_box(result.map_err(|e| engine_error("finalize", e))?);
    }
    let finalize = median(&finalize);
    out.push(m("linalg.eigen.finalize_us", finalize * 1e6));
    out.push(m("engine.aggregate.transition_s", transition));
    out.push(m("engine.aggregate.merge_s", merge));
    out.push(m("engine.aggregate.finalize_s", finalize));
    out.push(m(
        "engine.aggregate.transition_share",
        transition / (transition + merge + finalize),
    ));
    Ok(())
}

/// Chunk storage: sequential read, insert, gather, snapshot.
fn chunk_probe(
    bench: &mut Bench,
    cx: &Context,
    table: &Table,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let schema = table.schema();
    let rows = table.row_count() as f64;
    let bytes = rows * cx.w.shape.width as f64 * 8.0;
    let read = passes(cx.seconds * 0.02, || {
        let open = bench.tracer.begin("engine.chunk:scan_segment_chunks");
        let mut sum = 0.0;
        for s in 0..table.num_segments() {
            let _ = scan::scan_segment_chunks(table.segment(s), schema, None, |batch| {
                let x = batch.chunk().double_arrays(col::X)?;
                sum += x.flat_values().iter().sum::<f64>();
                Ok(())
            });
        }
        std::hint::black_box(sum);
        bench.tracer.end(open)
    });
    out.push(m("engine.chunk.read_gb_per_s", bytes / read / 1e9));

    let insert_rows = cx.main.rows().min(if cx.smoke { 4_096 } else { 32_768 });
    let prepared: Vec<Row> = cx.main.row_range(0..insert_rows);
    let open = bench.tracer.begin("engine.chunk:Table::insert");
    let fresh = table_of(cx, prepared);
    let insert = bench.tracer.end(open);
    std::hint::black_box(fresh?);
    out.push(m(
        "engine.chunk.insert_rows_per_s",
        insert_rows as f64 / insert,
    ));

    let every_other: Vec<u32> = (0..CHUNK_CAPACITY as u32).step_by(2).collect();
    let mut gathered = 0usize;
    let mut gather = 0.0;
    for chunk in chunks_of(table).take(256) {
        let indices = &every_other[..chunk.len() / 2];
        let open = bench.tracer.begin("engine.chunk:RowChunk::gather_rows");
        let compact = chunk.gather_rows(indices);
        gather += bench.tracer.end(open);
        gathered += compact.len();
    }
    out.push(m(
        "engine.chunk.gather_rows_per_s",
        gathered as f64 / gather,
    ));

    let mut snapshot = Vec::new();
    for _ in 0..100 {
        let (dataset, seconds) = bench.must("engine.chunk:Database::dataset", || {
            cx.loaded.db.dataset(TABLE)
        })?;
        std::hint::black_box(dataset);
        snapshot.push(seconds);
    }
    out.push(m("engine.chunk.snapshot_us", median(&snapshot) * 1e6));
    Ok(())
}

/// Predicate evaluation and group partitioning, chunk by chunk.
fn filter_and_group_probe(
    bench: &mut Bench,
    table: &Table,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let schema = table.schema();
    let predicate = region_filter();
    let (mut eval, mut rows, mut selected) = (0.0, 0usize, 0usize);
    for chunk in chunks_of(table) {
        let open = bench.tracer.begin("engine.expr:Predicate::evaluate_chunk");
        let mask = predicate.evaluate_chunk(chunk, schema);
        eval += bench.tracer.end(open);
        selected += mask
            .map_err(|e| engine_error("evaluate_chunk", e))?
            .count_selected();
        rows += chunk.len();
    }
    out.push(m("engine.expr.eval_rows_per_s", rows as f64 / eval));
    out.push(m("engine.expr.selectivity", selected as f64 / rows as f64));

    let keys = [col::TENANT, col::REGION];
    let (mut partition, mut rows, mut groups, mut chunks, mut sparse) =
        (0.0, 0usize, 0usize, 0usize, 0usize);
    for chunk in chunks_of(table).take(512) {
        let open = bench.tracer.begin("engine.group:partition_by_group");
        let found = partition_by_group(chunk, &keys);
        partition += bench.tracer.end(open);
        rows += chunk.len();
        groups += found.len();
        chunks += 1;
        // The radix path's trigger: fewer than four rows per group.
        sparse += usize::from(chunk.len() < 4 * found.len());
    }
    out.push(m(
        "engine.group.partition_rows_per_s",
        rows as f64 / partition,
    ));
    out.push(m(
        "engine.group.groups_per_chunk",
        groups as f64 / chunks as f64,
    ));
    out.push(m(
        "engine.group.sparse_chunk_share",
        sparse as f64 / chunks as f64,
    ));
    Ok(())
}

/// The workload's train call on one thread against its own kernels, and the
/// scan's fixed costs.  Returns the serial train time.
fn scan_probe(
    bench: &mut Bench,
    cx: &Context,
    table: &Table,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let session = &cx.loaded.session;
    let serial = Dataset::from_table(table).with_executor(Executor::serial());
    let grouped = serial.reborrow().group_by(["tenant", "region"]);
    let width = cx.w.shape.width;
    let rows = table.row_count() as f64;
    // The serial train call and a serial pass of its kernels, alternately,
    // so that the share is a ratio of neighbours in time.
    let started = Instant::now();
    let (mut train, mut rank_k, mut xty, mut share) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for pair in 0.. {
        if pair > 3 && started.elapsed().as_secs_f64() >= cx.seconds * 0.08 {
            break;
        }
        let train_s = if cx.w.grouped_train {
            bench
                .must("engine.scan:serial_train_grouped", || {
                    session.train_grouped(&linregr(), &grouped)
                })?
                .1
        } else {
            bench
                .must("engine.scan:serial_train", || {
                    session.train(&linregr(), &serial)
                })?
                .1
        };
        let (rank_k_s, xty_s) = linregr_kernels_pass(bench, table, width);
        // The first pair warms up.
        if pair > 0 {
            train.push(train_s);
            rank_k.push(rank_k_s);
            xty.push(xty_s);
            share.push((rank_k_s + xty_s) / train_s);
        }
    }
    let serial_train = median(&train);
    let w = width as f64;
    // Lower triangle: w(w+1)/2 multiply-adds per row.
    out.push(m(
        "linalg.rank_k.gflops",
        rows * w * (w + 1.0) / median(&rank_k) / 1e9,
    ));
    out.push(m("linalg.xty.gflops", rows * 2.0 * w / median(&xty) / 1e9));
    out.push(m("linalg.kernel_share", median(&share)));
    out.push(m(
        "engine.scan.units",
        scan::chunk_range_units(table, StealGranularity::ChunkRange).len() as f64,
    ));

    // A one-chunk table: what is left is spawn + merge.
    let tiny = table_of(cx, cx.main.row_range(0..256))?;
    let tiny = Dataset::from_table(&tiny);
    let dispatch = bench.repeat("engine.scan:dispatch", cx.seconds * 0.01, || {
        tiny.aggregate(&CountAggregate)
    })?;
    out.push(m("engine.scan.dispatch_us", median(&dispatch) * 1e6));
    out.push(m("engine.scan.parallel_speedup", serial_train / cx.train_s));
    Ok(())
}

/// Scoring: per-chunk `predict_chunk`, a cache-resident table, the NULL
/// fallback, top-k and the k-means scorer.
#[allow(clippy::too_many_arguments)]
fn score_probe(
    bench: &mut Bench,
    cx: &Context,
    table: &Table,
    triad_gb_per_s: f64,
    dot_pass_s: f64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let schema = table.schema();
    let scorer: LinregrScorer = FeatureScorer::new(Arc::clone(&cx.loaded.model), "x");
    let rows = table.row_count() as f64;
    let per_chunk = passes(cx.seconds * 0.03, || {
        let mut predictions: Vec<Value> = Vec::with_capacity(CHUNK_CAPACITY);
        let mut total = 0.0;
        for chunk in chunks_of(table) {
            predictions.clear();
            let open = bench.tracer.begin("engine.score:Scorer::predict_chunk");
            let _ = scorer.predict_chunk(chunk, schema, &mut predictions);
            total += bench.tracer.end(open);
        }
        total
    });
    let achieved = rows * cx.w.shape.width as f64 * 8.0 / per_chunk / 1e9;
    out.push(m("engine.score.chunk_rows_per_s", rows / per_chunk));
    out.push(m("engine.score.achieved_gb_per_s", achieved));
    out.push(m("engine.score.bandwidth_share", achieved / triad_gb_per_s));

    // 6 000 rows fit the L2 at every workload's width.
    let resident_rows = 6_000.min(cx.main.rows());
    let resident = table_of(cx, cx.main.row_range(0..resident_rows))?;
    // The same rows with 2 % NULL feature vectors: those chunks leave the
    // batched path for the per-row fallback.
    let nulled = cx.main.row_range(0..resident_rows).into_iter().enumerate();
    let nulled = nulled.map(|(i, row)| {
        let mut values = row.into_values();
        if i % 50 == 0 {
            values[col::X] = Value::Null;
        }
        Row::new(values)
    });
    let with_nulls = table_of(cx, nulled.collect())?;
    let resident = Dataset::from_table(&resident).with_executor(Executor::serial());
    let resident_s = bench.repeat("engine.score:resident", cx.seconds * 0.01, || {
        resident.score(&scorer)
    })?;
    out.push(m(
        "engine.score.resident_rows_per_s",
        resident_rows as f64 / median(&resident_s),
    ));
    let null_chunks = chunks_of(&with_nulls)
        .filter(|c| c.column(col::X).nulls().any_null())
        .count();
    let all_chunks = chunks_of(&with_nulls).count();
    let fallback = Dataset::from_table(&with_nulls).with_executor(Executor::serial());
    let fallback_s = bench.repeat("engine.score:fallback", cx.seconds * 0.01, || {
        fallback.score(&scorer)
    })?;
    out.push(m(
        "engine.score.fallback_rows_per_s",
        resident_rows as f64 / median(&fallback_s),
    ));
    out.push(m(
        "engine.score.fallback_chunk_share",
        null_chunks as f64 / all_chunks as f64,
    ));

    let serial = Dataset::from_table(table).with_executor(Executor::serial());
    let query = cx.main.features(cx.main.rows() / 2);
    let topk_s = bench.repeat("engine.score:serial_top_k", cx.seconds * 0.03, || {
        serial.top_k_by_score("x", query, TOP_K, Similarity::Dot)
    })?;
    out.push(m("engine.score.topk_share", dot_pass_s / median(&topk_s)));

    let model = cx
        .kmeans_model
        .clone()
        .ok_or("the k-means phase left no model")?;
    let by_cluster = FeatureScorer::new(Arc::new(model), "x");
    let parallel = Dataset::from_table(table);
    let kmeans_s = bench.repeat("engine.score:kmeans", cx.seconds * 0.03, || {
        parallel.score(&by_cluster)
    })?;
    out.push(m(
        "engine.score.kmeans_rows_per_s",
        rows / median(&kmeans_s),
    ));
    Ok(())
}

/// `MaterializedAggregate::{absorb, finalize}` on snapshots of a growing
/// private copy of the table.
fn materialize_probe(
    bench: &mut Bench,
    cx: &Context,
    table: &Table,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let mut view = MaterializedAggregate::new(linregr(), &Executor::serial());
    let open = bench.tracer.begin("engine.materialize:rebuild");
    let result = view.absorb(table);
    bench.tracer.end(open);
    result.map_err(|e| engine_error("absorb", e))?;

    let appends = if cx.smoke { 10 } else { 50 };
    let mut growing = table.clone();
    let mut absorb = Vec::new();
    for batch in 0..appends {
        let at = batch * APPEND_BATCH;
        for row in cx.stream.row_range(at..at + APPEND_BATCH) {
            growing
                .insert(row)
                .map_err(|e| engine_error("Table::insert", e))?;
        }
        let snapshot = growing.clone();
        let open = bench.tracer.begin("engine.materialize:absorb");
        let result = view.absorb(&snapshot);
        absorb.push(bench.tracer.end(open));
        result.map_err(|e| engine_error("absorb", e))?;
    }
    let mut finalize = Vec::new();
    for _ in 0..if cx.smoke { 3 } else { 9 } {
        let open = bench.tracer.begin("engine.materialize:finalize");
        let result = view.finalize();
        finalize.push(bench.tracer.end(open));
        std::hint::black_box(result.map_err(|e| engine_error("finalize", e))?);
    }
    out.push(m(
        "engine.materialize.absorb_us_per_batch",
        median(&absorb) * 1e6,
    ));
    out.push(m("engine.materialize.finalize_us", median(&finalize) * 1e6));
    out.push(m(
        "engine.materialize.absorbed_rows",
        growing.row_count() as f64,
    ));
    Ok(())
}

/// `Session::train` against the bare aggregate, and the profile pass.
fn method_probe(bench: &mut Bench, cx: &Context, out: &mut Vec<Metric>) -> Result<(), String> {
    let session = &cx.loaded.session;
    let (sample, _) = bench.must("Database::dataset", || {
        cx.loaded.db.dataset(sample_table(cx.w))
    })?;
    let serial = sample.reborrow().with_executor(Executor::serial());
    let overhead = bench.paired_difference(
        ("core.train:Session::train", "core.train:Dataset::aggregate"),
        cx.seconds * 0.04,
        || session.train(&linregr(), &serial),
        || {
            serial
                .aggregate(&linregr())
                .map_err(madlib_core::MethodError::from)
        },
    )?;
    out.push(m("core.train.fit_overhead_us", overhead * 1e6));
    out.push(m("core.train.irls_iterations", cx.irls_iterations as f64));
    out.push(m(
        "core.train.kmeans_iterations",
        cx.kmeans_iterations as f64,
    ));

    let profile = bench.repeat("sketch.profile:Dataset::profile", cx.seconds * 0.03, || {
        sample.profile()
    })?;
    out.push(m(
        "sketch.profile_rows_per_s",
        cx.w.sample_rows as f64 / median(&profile),
    ));
    Ok(())
}

/// Score and append alone, then beside each other.
fn interference_probe(
    bench: &mut Bench,
    cx: &Context,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let db = &cx.loaded.db;
    let serial = Session::new(db.clone()).with_executor(Executor::serial());
    let scorer: LinregrScorer = FeatureScorer::new(Arc::clone(&cx.loaded.model), "x");
    let (base, _) = bench.must("mixed:Database::table", || db.table(TABLE))?;
    let appends = (cx.stream.rows() / APPEND_BATCH).min(if cx.smoke { 60 } else { 1_000 });
    let rate = |client: &ClientLog| client.acknowledged.rows as f64 / client.wall_s;
    let score_rate = |passes: &[(usize, f64)]| {
        passes.iter().map(|p| p.0).sum::<usize>() as f64 / passes.iter().map(|p| p.1).sum::<f64>()
    };

    reset_live_table(bench, db, &serial, &base)?;
    let alone = concurrent_round(
        bench,
        db,
        &serial,
        &scorer,
        batches(cx.stream, 0, appends),
        Scoring::Off,
    )?;
    reset_live_table(bench, db, &serial, &base)?;
    let together = concurrent_round(
        bench,
        db,
        &serial,
        &scorer,
        batches(cx.stream, 0, appends),
        Scoring::UntilAppenderDone,
    )?;
    reset_live_table(bench, db, &serial, &base)?;
    let passes = together.passes.len().max(3);
    let scoring = concurrent_round(
        bench,
        db,
        &serial,
        &scorer,
        Vec::new(),
        Scoring::Passes(passes),
    )?;
    if together.passes.is_empty() {
        return Err("the concurrent scorer finished no pass".to_owned());
    }
    out.push(m(
        "mixed.score_slowdown",
        score_rate(&scoring.passes) / score_rate(&together.passes),
    ));
    out.push(m(
        "mixed.append_slowdown",
        rate(&alone.client) / rate(&together.client),
    ));
    reset_live_table(bench, db, &serial, &base)?;
    Ok(())
}

/// Sum of the sizes of the regular files in `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|meta| meta.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The private `wal` and `persist` modules, seen through a `Database` of the
/// probe's own: group commit against its alternatives, replay, snapshot load,
/// and what a checkpoint does to a concurrent appender.
#[allow(clippy::too_many_lines)]
fn database_probe(bench: &mut Bench, cx: &Context, out: &mut Vec<Metric>) -> Result<(), String> {
    let w = cx.w;
    let appends = if cx.smoke { 30 } else { 150 };
    let preload_rows = cx.w.durable.preload_rows.min(20_000);
    let dir = cx.scratch.subdir("probe-db")?;
    let (db, _) = bench.must("engine.database:Database::open", || {
        Database::open(&dir, w.segments)
    })?;
    let twin = Database::new(w.segments).map_err(|e| engine_error("Database::new", e))?;
    for target in [&db, &twin] {
        bench.must("engine.database:create_table", || {
            create_events(target, w, TABLE)
        })?;
        load_rows(bench, target, TABLE, cx.main, preload_rows, PRELOAD_BATCH)?;
    }

    // Batches of the append stream, wrapping around: a row appended twice is
    // as good a row as any here.
    let available = cx.stream.rows() / APPEND_BATCH;
    let mut cursor = 0;
    let mut take = |count: usize| {
        let count = count.min(available);
        if cursor + count > available {
            cursor = 0;
        }
        let prepared = batches(cx.stream, cursor * APPEND_BATCH, count);
        cursor += count;
        prepared
    };
    let rate = |logs: &[ClientLog]| {
        let rows: u64 = logs.iter().map(|l| l.acknowledged.rows).sum();
        let wall = logs.iter().map(|l| l.wall_s).fold(0.0, f64::max);
        rows as f64 / wall
    };
    let mut clients = |bench: &mut Bench, target: &Database, count: usize, each: usize| {
        let work: Vec<_> = (0..count).map(|_| take(each)).collect();
        run_clients(bench, target, None, work).0
    };

    let in_memory = clients(bench, &twin, 1, appends);
    let one = clients(bench, &db, 1, appends);
    let two = clients(bench, &db, 2, appends);
    db.set_group_commit(false);
    let ungrouped = clients(bench, &db, 2, appends / 2);
    db.set_group_commit(true);
    out.push(m("engine.wal.group_commit_gain", rate(&two) / rate(&one)));
    out.push(m("engine.wal.nogroup_rows_per_s", rate(&ungrouped)));
    out.push(m(
        "engine.wal.commit_wait_p50_us",
        (median(&one[0].append_s) - median(&in_memory[0].append_s)) * 1e6,
    ));
    out.push(m(
        "engine.database.inmem_append_rows_per_s",
        rate(&in_memory),
    ));

    // Recovery from the log alone: nothing was checkpointed yet.
    let logged_rows = db
        .table(TABLE)
        .map_err(|e| engine_error("Database::table", e))?
        .row_count();
    drop(db);
    let (db, replay_s) = bench.must("engine.wal:replay", || Database::recover(&dir))?;
    out.push(m(
        "engine.wal.replay_rows_per_s",
        logged_rows as f64 / replay_s,
    ));

    // A checkpoint under a running appender: the stall it causes.
    let started = Instant::now();
    let work = take(appends);
    let mut tracer = bench.tracer.for_thread(1);
    let (log, checkpoint_window) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            let mut spans = Vec::new();
            let mut log = ClientLog::default();
            for batch in work {
                let begin = started.elapsed().as_secs_f64();
                let one = append_client(&db, None, vec![batch], &mut tracer);
                spans.push((begin, started.elapsed().as_secs_f64()));
                log.attempted += one.attempted;
                log.failed += one.failed;
            }
            (log, spans)
        });
        // Let the appender get going, then checkpoint beside it.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let begin = started.elapsed().as_secs_f64();
        let result = db.checkpoint();
        let end = started.elapsed().as_secs_f64();
        let (log, spans) = appender.join().expect("the append client panicked");
        ((log, spans), (begin, end, result))
    });
    let ((log, spans), (begin, end, result)) = (log, checkpoint_window);
    bench.tracer.absorb(tracer, None);
    bench.attempted += log.attempted + 1;
    bench.failed += log.failed;
    result.map_err(|e| engine_error("checkpoint", e))?;
    let stall = spans
        .iter()
        .filter(|(b, e)| *b < end && *e > begin)
        .map(|(b, e)| e - b)
        .fold(0.0, f64::max);
    out.push(m("engine.database.checkpoint_stall_us", stall * 1e6));

    // Recovery right after a checkpoint: the snapshot files alone.
    bench.must("engine.persist:Database::checkpoint", || db.checkpoint())?;
    drop(db);
    let snapshot_bytes = dir_bytes(&dir);
    let (db, load_s) = bench.must("engine.persist:snapshot_load", || Database::recover(&dir))?;
    drop(db);
    out.push(m(
        "engine.persist.snapshot_load_mb_per_s",
        snapshot_bytes as f64 / load_s / 1e6,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Runs every probe.
///
/// # Errors
/// Propagates the first engine error.
pub fn run(bench: &mut Bench, cx: &Context) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let open = bench.tracer.begin("probes");
    let (table, _) = bench.must("Database::table", || cx.loaded.db.table(TABLE))?;
    let triad = host_probe(cx, &mut out);
    let dot_pass_s = kernel_probe(bench, cx, &table, &mut out);
    aggregate_probe(bench, cx, &table, &mut out)?;
    chunk_probe(bench, cx, &table, &mut out)?;
    filter_and_group_probe(bench, &table, &mut out)?;
    scan_probe(bench, cx, &table, &mut out)?;
    score_probe(bench, cx, &table, triad, dot_pass_s, &mut out)?;
    materialize_probe(bench, cx, &table, &mut out)?;
    method_probe(bench, cx, &mut out)?;
    interference_probe(bench, cx, &mut out)?;
    database_probe(bench, cx, &mut out)?;
    bench.tracer.end(open);
    Ok(out)
}

/// Where the run's measured seconds went: train, serve, ingest (appends and
/// checkpoints), recover (recovery and view rebuild).  A layer's gain can move
/// a workload by at most its share of these.
pub fn phase_metrics(seconds: [f64; 4]) -> Vec<Metric> {
    let total: f64 = seconds.iter().sum();
    ["train", "serve", "ingest", "recover"]
        .iter()
        .zip(seconds)
        .map(|(name, s)| m(&format!("bench.phase_share.{name}"), s / total))
        .collect()
}

/// The host's speed during the run, as the calibration loops saw it.
pub fn host_speed_metrics(speed: host::HostSpeed, loops_s: [f64; 4]) -> Vec<Metric> {
    vec![
        m("host.speed_factor.serial", speed.serial),
        m("host.speed_factor.parallel", speed.parallel),
        m("host.calibration_cpu_ms", loops_s[2] * 1e3),
        m("host.calibration_mem_ms", loops_s[3] * 1e3),
    ]
}

/// The per-layer numbers the durable part of the loop yields as it runs.
pub fn durable_metrics(d: &DurableResult) -> Vec<Metric> {
    let (tail_pct, tail_s) = tail(&d.append_s).unwrap_or((f64::NAN, f64::NAN));
    let max = d.append_s.iter().copied().fold(0.0, f64::max);
    vec![
        m("engine.wal.commit_p50_us", median(&d.append_s) * 1e6),
        m("engine.wal.append_rows_per_s", median(&d.cycle_rows_per_s)),
        m("engine.persist.checkpoint_s", median(&d.checkpoint_s)),
        m("engine.wal.commit_tail_us", tail_s * 1e6),
        m("engine.wal.commit_tail_percentile", tail_pct),
        m("engine.wal.commit_max_us", max * 1e6),
        m("engine.wal.bytes_per_row", d.wal_bytes_per_row),
        m(
            "engine.persist.checkpoint_mb_per_s",
            d.checkpoint_bytes as f64 / d.checkpoint_s.iter().sum::<f64>() / 1e6,
        ),
        m("engine.persist.chunks_written", d.chunks_written as f64),
        m("engine.persist.dir_bytes", d.stored_bytes as f64),
        m("engine.materialize.rebuild_s", median(&d.rebuild_s)),
        m(
            "core.train.refresh_vs_retrain",
            d.retrain_s / median(&d.refresh_s),
        ),
    ]
}
