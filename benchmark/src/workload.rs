//! The five workloads and the metric tables — the code-side twin of
//! `BENCHMARK.json` (a unit test keeps the two in agreement).
//!
//! Every workload runs the *same* loop — set-up, train (linregr, IRLS,
//! k-means, filtered fit), serve (score, top-k), durable ingest with
//! checkpoints, crash, recover — so every end-to-end metric is measured on
//! every workload.  What differs is the table's shape and where the run's
//! seconds go: each workload makes a different layer carry the time.

use crate::gen::Shape;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the shares and the
/// fixed durable counts below are sized for; other values scale both.
pub const RUN_SECONDS: f64 = 12.0;

/// Rows per `append_rows` call of every ingest client.
pub const APPEND_BATCH: usize = 64;

/// Rows per `append_rows` call while preloading a table during set-up.
pub const PRELOAD_BATCH: usize = 1000;

/// An ingest client calls `Session::refresh` after every this-many appends.
pub const REFRESH_EVERY: usize = 10;

/// IRLS and Lloyd iterations per fit: a zero tolerance makes both run
/// exactly this many, so a fit is a fixed amount of work.
pub const FIT_ITERATIONS: usize = 5;

pub const KMEANS_K: usize = 16;
pub const TOP_K: usize = 5;

/// The durable part of the loop, in fixed operation counts (at
/// [`RUN_SECONDS`]) so the database a checkpoint writes and a recovery reads
/// is the same size on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Durable {
    /// Rows loaded during set-up, before the incremental model is trained.
    pub preload_rows: usize,
    /// Ingest cycles; each ends with a `checkpoint()`.
    pub cycles: usize,
    /// Closed-loop appender threads per cycle.
    pub appenders: usize,
    /// `append_rows` calls per appender per cycle.
    pub appends_per_cycle: usize,
    /// Appends after the last checkpoint — the WAL tail recovery replays.
    pub tail_appends: usize,
    /// Timed `Database::recover` calls on the crashed copy.
    pub recovers: usize,
}

/// Share of `--seconds` each time-budgeted phase may use; what is left is
/// what the fixed-count durable part is sized to take on the reference host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shares {
    pub linregr: f64,
    pub irls: f64,
    pub kmeans: f64,
    pub filter: f64,
    pub score: f64,
    pub topk: f64,
    /// The in-memory append rounds (with the scorer beside them where the
    /// workload is `concurrent`, which then needs no `score` share).
    pub append: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub segments: usize,
    /// Hash-distribute on `tenant` (co-locates a tenant's rows, so a Zipf
    /// key distribution makes one segment hot) instead of round-robin.
    pub hash_on_tenant: bool,
    /// Rows of the prefix table the iterative fits (IRLS, k-means) run on;
    /// equal to `shape.rows` where training is the workload's point.
    pub sample_rows: usize,
    /// `train_rows_per_s` measures `Session::train_grouped` over
    /// `group_by(["tenant", "region"])` instead of one ungrouped fit.
    pub grouped_train: bool,
    /// `append_rows` calls per in-memory append round: a serial closed-loop
    /// client appending into the table and its view, from the preloaded
    /// state — where `append_rows_per_s` and `refresh_p50_us` come from.
    pub live_appends: usize,
    /// A serial scorer snapshots and scans the table **beside** the append
    /// client; `score_rows_per_s` then comes from those rounds too.
    pub concurrent: bool,
    pub durable: Durable,
    pub shares: Shares,
}

const fn uniform(rows: usize, width: usize) -> Shape {
    Shape {
        rows,
        width,
        keys: 16,
        zipf_s: 0.0,
        null_tenant_share: 0.0,
    }
}

/// The durable tail every non-ingest workload runs: small, but with enough
/// appends for a commit-latency median and three checkpoints and recoveries.
const SMALL_DURABLE: Durable = Durable {
    preload_rows: 20_000,
    cycles: 3,
    appenders: 2,
    appends_per_cycle: 150,
    tail_appends: 100,
    recovers: 3,
};

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "train_wide",
        why: "width-100 fits: rank-k, weighted rank-k and closest-column kernels carry the time; grouping, filters and the WAL do almost nothing",
        shape: uniform(100_000, 100),
        segments: 4,
        hash_on_tenant: false,
        sample_rows: 100_000,
        grouped_train: false,
        live_appends: 150,
        concurrent: false,
        durable: SMALL_DURABLE,
        shares: Shares {
            linregr: 0.22,
            irls: 0.24,
            kmeans: 0.24,
            filter: 0.04,
            score: 0.04,
            topk: 0.04,
            append: 0.06,
        },
    },
    Workload {
        name: "grouped_zipf",
        why: "4096 Zipf(1.1) composite keys at width 8, one hot segment: partition/gather/staging, filter compaction and 4096 finalizes carry the time; kernels do almost nothing",
        shape: Shape {
            rows: 1_000_000,
            width: 8,
            keys: 4096,
            zipf_s: 1.1,
            null_tenant_share: 0.01,
        },
        segments: 4,
        hash_on_tenant: true,
        sample_rows: 200_000,
        grouped_train: true,
        live_appends: 200,
        concurrent: false,
        durable: SMALL_DURABLE,
        shares: Shares {
            linregr: 0.34,
            irls: 0.08,
            kmeans: 0.10,
            filter: 0.16,
            score: 0.06,
            topk: 0.06,
            append: 0.05,
        },
    },
    Workload {
        name: "serve_stream",
        why: "one pass per op over 600k x 64 (307 MB, above the reported L3) at 2 flop per 8 B: memory bandwidth and Vec<Value> output carry the time; kernel tiers should be flat",
        shape: uniform(600_000, 64),
        segments: 4,
        hash_on_tenant: false,
        sample_rows: 60_000,
        grouped_train: false,
        live_appends: 200,
        concurrent: false,
        durable: SMALL_DURABLE,
        shares: Shares {
            linregr: 0.10,
            irls: 0.06,
            kmeans: 0.08,
            filter: 0.04,
            score: 0.27,
            topk: 0.25,
            append: 0.05,
        },
    },
    Workload {
        name: "ingest_recover",
        why: "durable 64-row appends from 2 closed-loop clients, checkpoints, a crash that discards unflushed bytes, recovery: fsync, WAL encode, chunk files, manifest and replay carry the time; kernels ~0",
        shape: uniform(200_000, 32),
        segments: 4,
        hash_on_tenant: false,
        sample_rows: 50_000,
        grouped_train: false,
        live_appends: 200,
        concurrent: false,
        durable: Durable {
            preload_rows: 100_000,
            cycles: 5,
            appenders: 2,
            appends_per_cycle: 500,
            tail_appends: 300,
            recovers: 5,
        },
        shares: Shares {
            linregr: 0.05,
            irls: 0.04,
            kmeans: 0.05,
            filter: 0.03,
            score: 0.04,
            topk: 0.04,
            append: 0.08,
        },
    },
    Workload {
        name: "mixed_htap",
        why: "a serial scorer snapshots and scans the table while a serial client appends into it and its view: Arc-sealed chunks, COW tail, the table lock and absorb-under-scan carry the time",
        shape: uniform(400_000, 32),
        segments: 4,
        hash_on_tenant: false,
        sample_rows: 50_000,
        grouped_train: false,
        live_appends: 2_000,
        concurrent: true,
        durable: SMALL_DURABLE,
        shares: Shares {
            linregr: 0.08,
            irls: 0.05,
            kmeans: 0.06,
            filter: 0.04,
            score: 0.0,
            topk: 0.06,
            append: 0.40,
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The `--smoke` scale: a sixteenth of the rows and the durable counts,
    /// every phase and every check still run.
    pub fn smoke(&self) -> Workload {
        let shrink = |n: usize, floor: usize| (n / 16).max(floor);
        let mut w = *self;
        w.shape.rows = shrink(w.shape.rows, 8_192);
        w.shape.keys = w.shape.keys.min(256);
        w.sample_rows = shrink(w.sample_rows, 4_096).min(w.shape.rows);
        w.live_appends = shrink(w.live_appends, 32);
        w.durable.preload_rows = shrink(w.durable.preload_rows, 2_048);
        w.durable.cycles = w.durable.cycles.min(2);
        w.durable.appends_per_cycle = shrink(w.durable.appends_per_cycle, 20);
        w.durable.tail_appends = shrink(w.durable.tail_appends, 10);
        w.durable.recovers = 2;
        w
    }

    /// Scales the fixed durable counts with `--seconds`.
    pub fn scaled_to(&self, seconds: f64) -> Workload {
        let scale = |n: usize| ((n as f64 * seconds / RUN_SECONDS).round() as usize).max(10);
        let mut w = *self;
        w.durable.appends_per_cycle = scale(w.durable.appends_per_cycle);
        w.durable.tail_appends = scale(w.durable.tail_appends);
        w
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the loop sees.  Bounds are max(5 %, 2 × the widest
/// quartile spread observed over the five workloads — in the ten-seed studies
/// and in the five-run sets of the selftests), rounded up to a step of 5 % and
/// capped at the contract's 25 %; see `RESULTS.md`.
pub const END_TO_END: [EndToEnd; 13] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("train_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("irls_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("kmeans_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("filter_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("score_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("topk_rows_per_s", "rows/s", Better::Higher, 0.2),
    e2e("append_rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("refresh_p50_us", "us", Better::Lower, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("restart_to_model_s", "s", Better::Lower, 0.25),
    e2e("stored_bytes_per_user_byte", "ratio", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single layers, measured from outside by timing public calls (traced run
/// only; reported, never gated).  Layers are the repository's modules.
pub const PER_LAYER: [PerLayer; 72] = [
    layer("host.cores", "count", Better::Higher),
    layer("host.copy_gb_per_s", "GB/s", Better::Higher),
    layer("host.triad_gb_per_s", "GB/s", Better::Higher),
    layer("host.triad_all_cores_gb_per_s", "GB/s", Better::Higher),
    layer("host.speed_factor.serial", "ratio", Better::Lower),
    layer("host.speed_factor.parallel", "ratio", Better::Lower),
    layer("host.calibration_cpu_ms", "ms", Better::Lower),
    layer("host.calibration_mem_ms", "ms", Better::Lower),
    layer("linalg.rank_k.gflops", "GFLOP/s", Better::Higher),
    layer("linalg.weighted_rank_k.gflops", "GFLOP/s", Better::Higher),
    layer("linalg.xty.gflops", "GFLOP/s", Better::Higher),
    layer(
        "linalg.closest_column.mrows_per_s",
        "Mrows/s",
        Better::Higher,
    ),
    layer("linalg.batch_dot.gb_per_s", "GB/s", Better::Higher),
    layer("linalg.kernel_share", "ratio", Better::Higher),
    layer("linalg.eigen.finalize_us", "us", Better::Lower),
    layer("engine.chunk.read_gb_per_s", "GB/s", Better::Higher),
    layer("engine.chunk.insert_rows_per_s", "rows/s", Better::Higher),
    layer("engine.chunk.gather_rows_per_s", "rows/s", Better::Higher),
    layer("engine.chunk.snapshot_us", "us", Better::Lower),
    layer("engine.expr.eval_rows_per_s", "rows/s", Better::Higher),
    layer("engine.expr.selectivity", "ratio", Better::Higher),
    layer(
        "engine.group.partition_rows_per_s",
        "rows/s",
        Better::Higher,
    ),
    layer("engine.group.groups_per_chunk", "count", Better::Higher),
    layer("engine.group.sparse_chunk_share", "ratio", Better::Lower),
    layer("engine.aggregate.transition_s", "s", Better::Lower),
    layer("engine.aggregate.merge_s", "s", Better::Lower),
    layer("engine.aggregate.finalize_s", "s", Better::Lower),
    layer("engine.aggregate.transition_share", "ratio", Better::Higher),
    layer("engine.scan.units", "count", Better::Lower),
    layer("engine.scan.dispatch_us", "us", Better::Lower),
    layer("engine.scan.parallel_speedup", "ratio", Better::Higher),
    layer("engine.score.chunk_rows_per_s", "rows/s", Better::Higher),
    layer("engine.score.achieved_gb_per_s", "GB/s", Better::Higher),
    layer("engine.score.bandwidth_share", "ratio", Better::Higher),
    layer("engine.score.resident_rows_per_s", "rows/s", Better::Higher),
    layer("engine.score.fallback_rows_per_s", "rows/s", Better::Higher),
    layer("engine.score.fallback_chunk_share", "ratio", Better::Lower),
    layer("engine.score.topk_share", "ratio", Better::Higher),
    layer("engine.score.kmeans_rows_per_s", "rows/s", Better::Higher),
    layer(
        "engine.materialize.absorb_us_per_batch",
        "us",
        Better::Lower,
    ),
    layer("engine.materialize.finalize_us", "us", Better::Lower),
    layer("engine.materialize.rebuild_s", "s", Better::Lower),
    layer("engine.materialize.absorbed_rows", "count", Better::Higher),
    layer("engine.wal.group_commit_gain", "ratio", Better::Higher),
    layer("engine.wal.nogroup_rows_per_s", "rows/s", Better::Higher),
    layer("engine.wal.commit_wait_p50_us", "us", Better::Lower),
    layer("engine.wal.replay_rows_per_s", "rows/s", Better::Higher),
    layer(
        "engine.persist.snapshot_load_mb_per_s",
        "MB/s",
        Better::Higher,
    ),
    layer("engine.database.checkpoint_stall_us", "us", Better::Lower),
    layer(
        "engine.database.inmem_append_rows_per_s",
        "rows/s",
        Better::Higher,
    ),
    layer("core.train.fit_overhead_us", "us", Better::Lower),
    layer("core.train.irls_iterations", "count", Better::Lower),
    layer("core.train.kmeans_iterations", "count", Better::Lower),
    layer("sketch.profile_rows_per_s", "rows/s", Better::Higher),
    layer("mixed.score_slowdown", "ratio", Better::Lower),
    layer("mixed.append_slowdown", "ratio", Better::Lower),
    layer("engine.wal.commit_p50_us", "us", Better::Lower),
    layer("engine.wal.append_rows_per_s", "rows/s", Better::Higher),
    layer("engine.persist.checkpoint_s", "s", Better::Lower),
    layer("engine.wal.commit_tail_us", "us", Better::Lower),
    layer("engine.wal.commit_tail_percentile", "%", Better::Higher),
    layer("engine.wal.commit_max_us", "us", Better::Lower),
    layer("engine.wal.bytes_per_row", "B/row", Better::Lower),
    layer("engine.persist.checkpoint_mb_per_s", "MB/s", Better::Higher),
    layer("engine.persist.chunks_written", "count", Better::Lower),
    layer("engine.persist.dir_bytes", "B", Better::Lower),
    layer("core.train.refresh_vs_retrain", "ratio", Better::Higher),
    layer("bench.phase_share.train", "ratio", Better::Higher),
    layer("bench.phase_share.serve", "ratio", Better::Higher),
    layer("bench.phase_share.ingest", "ratio", Better::Higher),
    layer("bench.phase_share.recover", "ratio", Better::Higher),
    layer("bench.trace_overhead_share", "ratio", Better::Lower),
];

/// The contents of `BENCHMARK.json`, from the tables above.
pub fn manifest() -> crate::json::Json {
    use crate::json::Json;
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "run",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_leave_room_for_the_durable_part() {
        for w in &WORKLOADS {
            let s = w.shares;
            let sum = s.linregr + s.irls + s.kmeans + s.filter + s.score + s.topk + s.append;
            assert!(sum < 0.9, "{}: shares sum to {sum}", w.name);
            assert!(w.sample_rows <= w.shape.rows);
            assert_eq!(w.concurrent, s.score == 0.0);
            assert!(w.live_appends > 0);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
    }

    #[test]
    fn smoke_and_scaling_keep_every_phase_alive() {
        for w in &WORKLOADS {
            let s = w.smoke();
            assert!(s.shape.rows >= 8_192 && s.sample_rows <= s.shape.rows);
            assert!(s.durable.cycles >= 1 && s.durable.appends_per_cycle >= 20);
            let half = w.scaled_to(RUN_SECONDS / 2.0);
            assert_eq!(
                half.durable.appends_per_cycle,
                w.durable.appends_per_cycle / 2
            );
            assert_eq!(w.scaled_to(RUN_SECONDS), *w);
        }
    }

    #[test]
    fn benchmark_json_says_what_the_code_does() {
        let file = crate::json::Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            file,
            manifest(),
            "regenerate with `madbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
