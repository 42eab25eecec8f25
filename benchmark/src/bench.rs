//! Counting, tracing and timing every call made on the engine.

use crate::stats::median;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

pub struct Bench {
    pub tracer: Tracer,
    pub traced_run: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds spent inside [`Bench::must`] calls so far; set-up reads the
    /// difference across one load as its engine time.
    pub engine_seconds: f64,
    /// Per repeated call: the first iteration of the pair in flight,
    /// (recorded?, seconds).
    pair_first: BTreeMap<&'static str, (bool, f64)>,
    /// (recorded − unrecorded) ÷ unrecorded time of consecutive iterations of
    /// one call: a traced run alternates recording between iterations
    /// (on-off, off-on, ...), so the cost of recording is measured inside one
    /// run, pair by pair, free of drift.
    overhead_pairs: Vec<f64>,
}

pub fn engine_error(what: &str, e: impl Display) -> String {
    format!("{what}: {e}")
}

impl Bench {
    pub fn new(traced_run: bool) -> Self {
        Self {
            tracer: Tracer::new(traced_run),
            traced_run,
            attempted: 0,
            failed: 0,
            engine_seconds: 0.0,
            pair_first: BTreeMap::new(),
            overhead_pairs: Vec::new(),
        }
    }

    /// One call that must succeed: counted, traced, and an error ends the
    /// run.  Returns the result and the call's seconds.
    pub fn must<T, E: Display>(
        &mut self,
        name: &'static str,
        call: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, f64), String> {
        let (result, seconds) = self.tracer.time(name, call);
        self.attempted += 1;
        self.engine_seconds += seconds;
        match result {
            Ok(value) => Ok((value, seconds)),
            Err(e) => {
                self.failed += 1;
                Err(engine_error(name, e))
            }
        }
    }

    /// In a traced run, whether timed iteration `iteration` of a repeated
    /// call is recorded: on-off, off-on, on-off, ...
    pub fn records(&self, iteration: usize) -> bool {
        self.traced_run && matches!(iteration % 4, 0 | 3)
    }

    /// Books one timed iteration of the repeated call `name` for the
    /// recording-overhead estimate.
    pub fn note_iteration(&mut self, name: &'static str, recorded: bool, seconds: f64) {
        if !self.traced_run {
            return;
        }
        match self.pair_first.remove(name) {
            None => {
                self.pair_first.insert(name, (recorded, seconds));
            }
            Some((true, on)) => self.overhead_pairs.push((on - seconds) / seconds),
            Some((false, off)) => self.overhead_pairs.push((seconds - off) / off),
        }
    }

    /// Median over all recorded/unrecorded iteration pairs of a traced run of
    /// (time with recording on − time with it off) ÷ time with it off.
    pub fn trace_overhead_share(&self) -> f64 {
        median(&self.overhead_pairs)
    }

    /// Repeats `call` back to back for about `budget_s` seconds — one or two
    /// warm-up iterations, then at least three timed ones — and returns the
    /// timed durations.  For the probes; the timed phases of a run interleave
    /// their calls through a [`crate::schedule::Schedule`] instead.
    pub fn repeat<T, E: Display>(
        &mut self,
        name: &'static str,
        budget_s: f64,
        mut call: impl FnMut() -> Result<T, E>,
    ) -> Result<Vec<f64>, String> {
        const MIN_TIMED: usize = 3;
        let started = Instant::now();
        let mut samples = Vec::new();
        let mut warm_ups = 0;
        loop {
            let elapsed = started.elapsed().as_secs_f64();
            let warming = warm_ups < 2 && (warm_ups == 0 || elapsed < budget_s * 0.2);
            if !warming && samples.len() >= MIN_TIMED && elapsed >= budget_s {
                break;
            }
            let record = !warming && self.records(samples.len());
            self.tracer.set_recording(record);
            let outcome = self.must(name, &mut call);
            self.tracer.set_recording(self.traced_run);
            let (value, seconds) = outcome?;
            std::hint::black_box(value);
            if warming {
                warm_ups += 1;
            } else {
                samples.push(seconds);
                self.note_iteration(name, record, seconds);
            }
        }
        Ok(samples)
    }

    /// Repeats `a` and `b` alternately for about `budget_s` seconds and
    /// returns the median of the paired differences `a − b` in seconds.
    pub fn paired_difference<T, U, E: Display>(
        &mut self,
        names: (&'static str, &'static str),
        budget_s: f64,
        mut a: impl FnMut() -> Result<T, E>,
        mut b: impl FnMut() -> Result<U, E>,
    ) -> Result<f64, String> {
        let started = Instant::now();
        let mut differences = Vec::new();
        // One warm-up pair, then at least three timed ones.
        for pair in 0.. {
            if pair > 3 && started.elapsed().as_secs_f64() >= budget_s {
                break;
            }
            let (first, a_s) = self.must(names.0, &mut a)?;
            let (second, b_s) = self.must(names.1, &mut b)?;
            std::hint::black_box((first, second));
            if pair > 0 {
                differences.push(a_s - b_s);
            }
        }
        Ok(median(&differences))
    }
}
