//! The benchmark's own spans: recorded around its calls into each layer,
//! kept in memory, written as JSON lines when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, run_id, count}`; `parent`
//! is the index (line number, from 0) of the enclosing span or `null`,
//! `count` the work done inside (events, ops) where the caller knows it.
//! A span's self time is its duration minus its children's.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    count: u64,
}

/// Handle of an open span.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

/// In-memory span recorder. A disabled recorder (untraced runs) records
/// nothing and costs two branches per call.
pub struct Spans {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool, run_id: u64) -> Spans {
        Spans { enabled, run_id, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        self.exit_counted(id, 0);
    }

    /// Closes a span (and any span still open inside it), recording how
    /// much work it covered.
    pub fn exit_counted(&mut self, id: SpanId, count: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
        self.spans[id.0].count = count;
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).sum::<u64>()
            as f64
            / 1e9
    }

    /// `(name, calls, total ns, self ns)` per span name, first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, dur, own)),
            }
        }
        rows
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \
                 \"run_id\": {}, \"count\": {}}}",
                s.name, s.start_ns, s.end_ns, parent, self.run_id, s.count
            );
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
