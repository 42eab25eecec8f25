//! Appends into the in-memory table and its live view, in rounds that each
//! start from the preloaded table — alone, or with a scorer snapshotting and
//! scanning beside the appender (`mixed_htap`, and the interference probe).

use crate::bench::Bench;
use crate::checks::{self, Checks, Verdict};
use crate::gen::RawData;
use crate::ingest::{append_client, batches, Batch, ClientLog};
use crate::run::{linregr, LinregrScorer, Loaded, LIVE_MODEL, TABLE};
use crate::stats::median;
use crate::workload::APPEND_BATCH;
use madlib_core::score::FeatureScorer;
use madlib_core::Session;
use madlib_engine::{Database, Executor, Table};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// One concurrent round on the in-memory table: an append client beside a
/// scorer that snapshots and scans until the appender is done.
pub struct RoundResult {
    pub client: ClientLog,
    /// (rows in the snapshot, seconds to score it), per pass.
    pub passes: Vec<(usize, f64)>,
}

/// What the scorer beside the append client does in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// No scorer: the appender runs alone.
    Off,
    /// Snapshot and scan until the appender has finished.
    UntilAppenderDone,
    /// Exactly this many passes (the scorer alone, given no append work).
    Passes(usize),
}

pub fn concurrent_round(
    bench: &mut Bench,
    db: &Database,
    serial: &Session,
    scorer: &LinregrScorer,
    work: Vec<Batch>,
    scoring: Scoring,
) -> Result<RoundResult, String> {
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let open = bench.tracer.begin("mixed:round");
    let parent = bench.tracer.current();
    let mut append_tracer = bench.tracer.for_thread(1);
    let mut score_tracer = bench.tracer.for_thread(2);
    let (client, passes) = std::thread::scope(|scope| {
        let appender = scope.spawn(|| {
            barrier.wait();
            let log = append_client(db, Some(serial), work, &mut append_tracer);
            done.store(true, Ordering::SeqCst);
            log
        });
        let scorer_thread = scope.spawn(|| {
            let mut passes: Vec<(usize, f64)> = Vec::new();
            let mut failures: Vec<String> = Vec::new();
            barrier.wait();
            loop {
                let finished = match scoring {
                    Scoring::Off => true,
                    Scoring::UntilAppenderDone => done.load(Ordering::SeqCst),
                    Scoring::Passes(n) => passes.len() >= n,
                };
                if finished || failures.len() >= 3 {
                    break;
                }
                let open = score_tracer.begin("mixed:snapshot_and_score");
                let result = db.dataset(TABLE).and_then(|dataset| {
                    let dataset = dataset.with_executor(Executor::serial());
                    let rows = dataset.table().row_count();
                    dataset.score(scorer).map(|scored| (rows, scored))
                });
                let seconds = score_tracer.end(open);
                match result {
                    Ok((rows, scored)) if scored.len() == rows => passes.push((rows, seconds)),
                    Ok((rows, scored)) => failures.push(format!(
                        "{} predictions for a {rows}-row snapshot",
                        scored.len()
                    )),
                    Err(e) => failures.push(e.to_string()),
                }
            }
            (passes, failures)
        });
        let client = appender.join().expect("the append client panicked");
        let (passes, failures) = scorer_thread.join().expect("the scorer panicked");
        (client, (passes, failures))
    });
    let (passes, failures) = passes;
    bench.tracer.absorb(append_tracer, parent);
    bench.tracer.absorb(score_tracer, parent);
    bench.tracer.end(open);
    bench.attempted += client.attempted + (passes.len() + failures.len()) as u64;
    bench.failed += client.failed + failures.len() as u64;
    if let Some(first) = failures.first() {
        return Err(format!("concurrent scoring failed: {first}"));
    }
    Ok(RoundResult { client, passes })
}

/// Resets the in-memory table to its preloaded contents (cheap: sealed
/// chunks are shared) and rebuilds the live view on it.
pub fn reset_live_table(
    bench: &mut Bench,
    db: &Database,
    serial: &Session,
    base: &Table,
) -> Result<(), String> {
    bench.must("mixed:replace_table", || {
        db.replace_table(TABLE, base.clone())
    })?;
    bench.must("mixed:rebuild_view", || {
        serial.refresh(&linregr(), TABLE, LIVE_MODEL)
    })?;
    Ok(())
}

/// What the append rounds measured.
#[derive(Default)]
pub struct LiveResult {
    /// The appender's wall clock per measured round (a fixed row count).
    pub append_round_s: Vec<f64>,
    /// Rows the appender gets acknowledged per round.
    pub rows_per_round: usize,
    /// Scoring seconds per scored row, per measured round with a scorer.
    pub score_s_per_row: Vec<f64>,
    /// Median `Session::refresh` latency of each measured round.
    pub refresh_p50_s: Vec<f64>,
}

/// The in-memory append rounds, one at a time (the run interleaves them with
/// its other calls).  With a scorer beside the appender every round starts
/// from the preloaded table, so every round's scans are the same size;
/// without one the table simply grows (an append and a refresh cost the same
/// whatever the table holds) and the reset — a view rebuild over the whole
/// table — is saved.
pub struct Live<'a> {
    db: Database,
    serial: Session,
    scorer: LinregrScorer,
    base: Table,
    stream: &'a RawData,
    appends: usize,
    /// Whether a scorer runs beside the appender.
    concurrent: bool,
    lengths_ok: Verdict,
    out: LiveResult,
}

impl<'a> Live<'a> {
    pub fn new(
        bench: &mut Bench,
        loaded: &Loaded,
        stream: &'a RawData,
        appends: usize,
        concurrent: bool,
    ) -> Result<Self, String> {
        let db = loaded.db.clone();
        let (base, _) = bench.must("live:Database::table", || db.table(TABLE))?;
        Ok(Self {
            serial: Session::new(db.clone()).with_executor(Executor::serial()),
            scorer: FeatureScorer::new(Arc::clone(&loaded.model), "x"),
            db,
            base,
            stream,
            appends,
            concurrent,
            lengths_ok: Ok(()),
            out: LiveResult {
                rows_per_round: appends * APPEND_BATCH,
                ..LiveResult::default()
            },
        })
    }

    /// One round; returns its wall clock, preparation included (what the
    /// schedule budgets).  A `measured` round contributes to the metrics,
    /// every round to the snapshot check.
    pub fn round(&mut self, bench: &mut Bench, measured: bool) -> Result<f64, String> {
        let started = std::time::Instant::now();
        if self.concurrent {
            reset_live_table(bench, &self.db, &self.serial, &self.base)?;
        }
        let work = batches(self.stream, 0, self.appends);
        let result = concurrent_round(
            bench,
            &self.db,
            &self.serial,
            &self.scorer,
            work,
            if self.concurrent {
                Scoring::UntilAppenderDone
            } else {
                Scoring::Off
            },
        )?;
        let lengths: Vec<usize> = result.passes.iter().map(|p| p.0).collect();
        // Only concurrent rounds take snapshots, and those start from `base`.
        let consistent =
            checks::snapshots_are_consistent(&lengths, self.base.row_count(), APPEND_BATCH);
        self.lengths_ok = std::mem::replace(&mut self.lengths_ok, Ok(())).and(consistent);
        if result.client.acknowledged.rows != self.out.rows_per_round as u64 {
            return Err("an in-memory append round lost rows".to_owned());
        }
        if measured {
            self.out.append_round_s.push(result.client.wall_s);
            self.out
                .refresh_p50_s
                .push(median(&result.client.refresh_s));
            if !result.passes.is_empty() {
                let scored: usize = lengths.iter().sum();
                let scoring_s: f64 = result.passes.iter().map(|p| p.1).sum();
                self.out.score_s_per_row.push(scoring_s / scored as f64);
            }
        }
        Ok(started.elapsed().as_secs_f64())
    }

    /// The rounds' checks; leaves the table as it was preloaded.
    pub fn finish(self, bench: &mut Bench, checks: &mut Checks) -> Result<LiveResult, String> {
        if self.out.refresh_p50_s.is_empty()
            || (self.concurrent && self.out.score_s_per_row.is_empty())
        {
            return Err("no append round completed a refresh and a scoring pass".to_owned());
        }
        if self.concurrent {
            checks.record("mixed_snapshot_lengths", self.lengths_ok);
        }
        let (refreshed, _) = bench.must("check:Session::refresh", || {
            self.serial.refresh(&linregr(), TABLE, LIVE_MODEL)
        })?;
        let (dataset, _) = bench.must("check:Database::dataset", || self.db.dataset(TABLE))?;
        let (retrained, _) = bench.must("check:Session::train", || {
            self.serial.train(&linregr(), &dataset)
        })?;
        checks.record(
            "live_refresh_is_retrain_bits",
            checks::same_bits(
                "refreshed vs retrained coefficients",
                &refreshed.coef,
                &retrained.coef,
            ),
        );
        reset_live_table(bench, &self.db, &self.serial, &self.base)?;
        Ok(self.out)
    }
}
