//! The durable part of the loop: closed-loop append clients, checkpoints,
//! the crash, the recoveries.

use crate::bench::{engine_error, Bench};
use crate::checks::{self, Checks, RowSetFingerprint};
use crate::gen::{self, RawData};
use crate::run::{linregr, LIVE_MODEL, TABLE};
use crate::scratch::{self, ScratchDir};
use crate::trace::Tracer;
use crate::workload::{Durable, APPEND_BATCH, REFRESH_EVERY};
use madlib_core::regress::LinearRegressionModel;
use madlib_core::Session;
use madlib_engine::{Database, Row};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

/// What one append client did.
#[derive(Default)]
pub struct ClientLog {
    pub append_s: Vec<f64>,
    pub refresh_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub acknowledged: RowSetFingerprint,
    pub user_bytes: u64,
    /// Wall clock from the first call to the last acknowledgement.
    pub wall_s: f64,
}

/// A prepared `append_rows` batch with what its acknowledgement will add to
/// the books.
pub struct Batch {
    rows: Vec<Row>,
    fingerprint: RowSetFingerprint,
    user_bytes: u64,
}

pub fn batches(raw: &RawData, first_row: usize, count: usize) -> Vec<Batch> {
    (0..count)
        .map(|i| {
            let at = first_row + i * APPEND_BATCH;
            let rows = raw.row_range(at..at + APPEND_BATCH);
            Batch {
                fingerprint: RowSetFingerprint::of(&rows),
                user_bytes: rows.iter().map(gen::user_bytes).sum(),
                rows,
            }
        })
        .collect()
}

/// A closed-loop ingest client: appends its batches one after another, each
/// only after the previous was acknowledged, and — when given a session —
/// refreshes the live model after every [`REFRESH_EVERY`]-th acknowledgement.
pub fn append_client(
    db: &Database,
    refresher: Option<&Session>,
    work: Vec<Batch>,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let estimator = linregr();
    let started = Instant::now();
    for (i, batch) in work.into_iter().enumerate() {
        let (result, seconds) = tracer.time("Database::append_rows", || {
            db.append_rows(TABLE, batch.rows)
        });
        log.attempted += 1;
        match result {
            Ok(()) => {
                log.append_s.push(seconds);
                log.acknowledged.merge(batch.fingerprint);
                log.user_bytes += batch.user_bytes;
            }
            Err(e) => {
                log.failed += 1;
                eprintln!("madbench: append_rows failed: {e}");
            }
        }
        if let Some(session) = refresher.filter(|_| (i + 1) % REFRESH_EVERY == 0) {
            let (result, seconds) = tracer.time("Session::refresh", || {
                session.refresh(&estimator, TABLE, LIVE_MODEL)
            });
            log.attempted += 1;
            match result {
                Ok(model) => {
                    std::hint::black_box(model);
                    log.refresh_s.push(seconds);
                }
                Err(e) => {
                    log.failed += 1;
                    eprintln!("madbench: refresh failed: {e}");
                }
            }
        }
    }
    log.wall_s = started.elapsed().as_secs_f64();
    log
}

/// Runs one closed-loop append client per element of `work` beside each
/// other, starting them together (client 0 refreshes the live model when
/// given a session); returns their logs and the wall clock of the slowest.
pub fn run_clients(
    bench: &mut Bench,
    db: &Database,
    refresher: Option<&Session>,
    work: Vec<Vec<Batch>>,
) -> (Vec<ClientLog>, f64) {
    let barrier = Barrier::new(work.len());
    let open = bench.tracer.begin("ingest:clients");
    let parent = bench.tracer.current();
    let results: Vec<(ClientLog, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = work
            .into_iter()
            .enumerate()
            .map(|(id, batches)| {
                let mut tracer = bench.tracer.for_thread(id as u32 + 1);
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let refresher = refresher.filter(|_| id == 0);
                    let log = append_client(db, refresher, batches, &mut tracer);
                    (log, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an append client panicked"))
            .collect()
    });
    let mut logs = Vec::new();
    for (log, tracer) in results {
        bench.attempted += log.attempted;
        bench.failed += log.failed;
        bench.tracer.absorb(tracer, parent);
        logs.push(log);
    }
    let wall = bench.tracer.end(open);
    (logs, wall)
}

/// What the durable part of the loop measured.
#[derive(Default)]
pub struct DurableResult {
    pub append_s: Vec<f64>,
    pub refresh_s: Vec<f64>,
    /// Acknowledged rows per second of each cycle.
    pub cycle_rows_per_s: Vec<f64>,
    pub checkpoint_s: Vec<f64>,
    pub chunks_written: usize,
    pub recover_s: Vec<f64>,
    pub rebuild_s: Vec<f64>,
    pub stored_bytes: u64,
    pub user_bytes: u64,
    pub wal_bytes_per_row: f64,
    pub recovered_rows: u64,
    /// Bytes the checkpoints wrote: chunk-file growth plus each manifest.
    pub checkpoint_bytes: u64,
    /// One full retrain on the final table, for `refresh_vs_retrain`.
    pub retrain_s: f64,
    /// Wall clock of the append cycles and the WAL tail.
    pub ingest_wall_s: f64,
}

/// Bytes in `dir`'s chunk files, and the size of everything else but the log
/// (the manifest, rewritten whole by every checkpoint).
fn snapshot_bytes(dir: &Path) -> (u64, u64) {
    let (mut chunks, mut rest) = (0, 0);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.filter_map(Result::ok) {
            let len = entry.metadata().map_or(0, |m| m.len());
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".chunks") {
                chunks += len;
            } else if name != scratch::WAL_FILE {
                rest += len;
            }
        }
    }
    (chunks, rest)
}

/// The durable database under ingest: cycles are run one at a time (the
/// run interleaves them with its other calls), then [`Ingest::finish`]
/// appends the WAL tail, crashes and recovers.
pub struct Ingest<'a> {
    db: Database,
    dir: PathBuf,
    session: Session,
    plan: Durable,
    stream: &'a RawData,
    next_row: usize,
    acknowledged: RowSetFingerprint,
    out: DurableResult,
}

impl<'a> Ingest<'a> {
    /// `db` was preloaded with the first `plan.preload_rows` rows of
    /// `preload` and has the live model trained.
    pub fn new(
        db: Database,
        dir: PathBuf,
        plan: Durable,
        preload: &RawData,
        stream: &'a RawData,
    ) -> Self {
        let mut acknowledged = RowSetFingerprint::default();
        let mut out = DurableResult::default();
        for i in 0..plan.preload_rows {
            let row = preload.row(i);
            out.user_bytes += gen::user_bytes(&row);
            acknowledged.add(&row);
        }
        Self {
            session: Session::new(db.clone()),
            db,
            dir,
            plan,
            stream,
            next_row: 0,
            acknowledged,
            out,
        }
    }

    pub fn cycles_done(&self) -> usize {
        self.out.checkpoint_s.len()
    }

    fn take(&mut self, count: usize) -> Vec<Batch> {
        let prepared = batches(self.stream, self.next_row, count);
        self.next_row += count * APPEND_BATCH;
        prepared
    }

    fn book(&mut self, log: ClientLog) {
        self.acknowledged.merge(log.acknowledged);
        self.out.user_bytes += log.user_bytes;
        self.out.append_s.extend(log.append_s);
        self.out.refresh_s.extend(log.refresh_s);
    }

    /// One ingest cycle: the appenders beside each other, then a checkpoint.
    pub fn cycle(&mut self, bench: &mut Bench) -> Result<(), String> {
        let work: Vec<Vec<Batch>> = (0..self.plan.appenders)
            .map(|_| self.take(self.plan.appends_per_cycle))
            .collect();
        let (logs, wall) = run_clients(bench, &self.db, Some(&self.session), work);
        let rows: u64 = logs.iter().map(|log| log.acknowledged.rows).sum();
        for log in logs {
            self.book(log);
        }
        self.out.cycle_rows_per_s.push(rows as f64 / wall);
        self.out.ingest_wall_s += wall;
        let (chunks_before, _) = snapshot_bytes(&self.dir);
        let (written, seconds) = bench.must("Database::checkpoint", || self.db.checkpoint())?;
        let (chunks_after, manifest) = snapshot_bytes(&self.dir);
        self.out.checkpoint_bytes += chunks_after - chunks_before + manifest;
        self.out.chunks_written += written;
        self.out.checkpoint_s.push(seconds);
        Ok(())
    }

    /// The WAL tail, the refresh ≡ retrain check, the crash, the recoveries.
    pub fn finish(
        mut self,
        bench: &mut Bench,
        checks: &mut Checks,
        scratch: &ScratchDir,
    ) -> Result<DurableResult, String> {
        while self.cycles_done() < self.plan.cycles {
            self.cycle(bench)?;
        }
        // The tail recovery will replay, and its exact byte cost per row.
        let wal_before = self.db.wal_durable_len().unwrap_or(0);
        let work = self.take(self.plan.tail_appends);
        let tail = append_client(&self.db, Some(&self.session), work, &mut bench.tracer);
        bench.attempted += tail.attempted;
        bench.failed += tail.failed;
        let wal_after = self.db.wal_durable_len().unwrap_or(0);
        self.out.wal_bytes_per_row =
            (wal_after - wal_before) as f64 / tail.acknowledged.rows as f64;
        self.out.ingest_wall_s += tail.wall_s;
        self.book(tail);
        let Self {
            db,
            dir,
            session,
            plan,
            acknowledged,
            mut out,
            ..
        } = self;
        if out.append_s.is_empty() || out.refresh_s.is_empty() {
            return Err("no append or refresh succeeded".to_owned());
        }

        let (refreshed, _) = bench.must("check:Session::refresh", || {
            session.refresh(&linregr(), TABLE, LIVE_MODEL)
        })?;
        let (dataset, _) = bench.must("check:Database::dataset", || db.dataset(TABLE))?;
        let (retrained, retrain_s) = bench.must("check:Session::train", || {
            session.train(&linregr(), &dataset)
        })?;
        out.retrain_s = retrain_s;
        checks.record(
            "durable_refresh_is_retrain_bits",
            checks::same_bits(
                "refreshed vs retrained coefficients",
                &refreshed.coef,
                &retrained.coef,
            ),
        );
        drop(dataset);

        // Crash: drop every handle, keep only what fdatasync acknowledged.
        let durable_len = db
            .wal_durable_len()
            .ok_or("the durable database reports no WAL length")?;
        drop(session);
        drop(db);
        let crashed = scratch.path().join("crashed");
        out.stored_bytes = scratch::crash_copy(&dir, &crashed, durable_len)?;
        std::fs::remove_dir_all(&dir).map_err(|e| engine_error("remove live directory", e))?;

        for i in 0..plan.recovers {
            if i > 0 {
                scratch::tear_log_again(&crashed)?;
            }
            let last = i + 1 == plan.recovers;
            recover_once(
                bench,
                &crashed,
                &mut out,
                last.then_some((checks as &mut Checks, acknowledged, &refreshed)),
            )?;
        }
        Ok(out)
    }
}

/// One timed restart: `Database::recover`, then the view rebuild.  The last
/// one also checks what came back.
fn recover_once(
    bench: &mut Bench,
    crashed: &Path,
    out: &mut DurableResult,
    check: Option<(&mut Checks, RowSetFingerprint, &LinearRegressionModel)>,
) -> Result<(), String> {
    let open = bench.tracer.begin("restart_to_model");
    let (recovered, recover_s) = bench.must("Database::recover", || Database::recover(crashed))?;
    let session = Session::new(recovered.clone());
    let (model, rebuild_s) = bench.must("Session::train_incremental", || {
        session.train_incremental(&linregr(), TABLE, LIVE_MODEL)
    })?;
    bench.tracer.end(open);
    out.recover_s.push(recover_s);
    out.rebuild_s.push(rebuild_s);
    if let Some((checks, acknowledged, before_crash)) = check {
        let (table, _) = bench.must("check:Database::table", || recovered.table(TABLE))?;
        let mut found = RowSetFingerprint::default();
        for row in table.iter() {
            found.add(&row);
        }
        out.recovered_rows = found.rows;
        checks.record(
            "recovered_rows_are_acknowledged_rows",
            checks::recovered_is_acknowledged(acknowledged, found),
        );
        checks.record(
            "recovered_model_is_precrash_model_bits",
            checks::same_bits(
                "post-recovery vs pre-crash coefficients",
                &model.coef,
                &before_crash.coef,
            ),
        );
    }
    Ok(())
}
