//! Spans around the calls into each layer, recorded from the benchmark's own
//! code and kept in memory until the run ends.
//!
//! Every timed call goes through [`Tracer::begin`] / [`Tracer::end`], traced
//! or not: `end` returns the elapsed seconds either way, and additionally
//! records a span while recording is on.  That makes the traced and the
//! untraced run execute the same code around the same calls, so their
//! difference is the cost of recording alone.

use std::time::Instant;

/// One recorded interval: the layer boundary it wraps, when it ran (ns since
/// the tracer's epoch), the span that caused it and the operation it belongs
/// to (spans of one public call share `op`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug)]
pub struct Open {
    started: Instant,
    slot: Option<u32>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    recording: bool,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    next_op: u32,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Self {
            epoch: Instant::now(),
            thread: 0,
            recording,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// A tracer for a client thread: same epoch and recording state, its own
    /// span list, merged back with [`Tracer::absorb`] after the join.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer {
            epoch: self.epoch,
            thread,
            recording: self.recording,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Switches recording.  Spans already open stay open and close normally;
    /// calls made while recording is off simply leave no span (their time
    /// counts as self time of the enclosing recorded span).
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        if !self.recording {
            return Open {
                started,
                slot: None,
            };
        }
        let parent = self.open.last().copied();
        let op = match parent {
            Some(p) => self.spans[p as usize].op,
            None => {
                self.next_op += 1;
                self.next_op
            }
        };
        let slot = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            thread: self.thread,
            start_ns: (started - self.epoch).as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
        self.open.push(slot);
        Open {
            started,
            slot: Some(slot),
        }
    }

    /// Closes the span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            let top = self.open.pop();
            assert_eq!(top, Some(slot), "spans must close innermost first");
            self.spans[slot as usize].end_ns = (now - self.epoch).as_nanos() as u64;
        }
        (now - open.started).as_secs_f64()
    }

    /// Times `call` as one span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = call();
        (out, self.end(open))
    }

    /// Merges a client thread's spans, re-basing their indices and operation
    /// ids; `parent` becomes the parent of the thread's root spans.
    pub fn absorb(&mut self, child: Tracer, parent: Option<u32>) {
        assert!(child.open.is_empty(), "client thread left a span open");
        let base = self.spans.len() as u32;
        let op_base = self.next_op;
        self.next_op += child.next_op;
        for mut span in child.spans {
            span.parent = span.parent.map(|p| p + base).or(parent);
            span.op += op_base;
            self.spans.push(span);
        }
    }

    /// Index of the innermost open span, for [`Tracer::absorb`].
    pub fn current(&self) -> Option<u32> {
        self.open.last().copied()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines (one object per span, self time included).
    pub fn to_json_lines(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{own}}}\n",
                span.name, span.thread, span.start_ns, span.end_ns, span.op
            ));
        }
        out
    }
}

/// A span's self time: its duration minus the part of its interval covered
/// by its direct children (the union of their intervals clipped to the
/// parent — children on client threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let lo = span.start_ns.max(p.start_ns);
            let hi = span.end_ns.min(p.end_ns);
            if hi > lo {
                children[parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(lo, hi) in intervals.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            thread: 0,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 45, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        // Two client threads overlap on [20, 40]; one child outlives the
        // parent and only its part inside counts.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(20, 60, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn nested_spans_share_an_operation_and_siblings_do_not() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.begin("outer");
        let inner = tracer.begin("inner");
        tracer.end(inner);
        tracer.end(outer);
        let next = tracer.begin("next");
        tracer.end(next);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, spans[1].op);
        assert_ne!(spans[0].op, spans[2].op);
    }

    #[test]
    fn an_untraced_tracer_times_but_records_nothing() {
        let mut tracer = Tracer::new(false);
        let (value, seconds) = tracer.time("call", || 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn client_thread_spans_merge_under_the_open_span() {
        let mut main = Tracer::new(true);
        let phase = main.begin("phase");
        let mut client = main.for_thread(1);
        let a = client.begin("append");
        let b = client.begin("absorb");
        client.end(b);
        client.end(a);
        let parent = main.current();
        main.absorb(client, parent);
        main.end(phase);
        let spans = main.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].thread, 1);
        assert_eq!(spans[1].op, spans[2].op);
        assert_ne!(spans[1].op, spans[0].op);
        assert_eq!(main.to_json_lines().lines().count(), 3);
    }
}
