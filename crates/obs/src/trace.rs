//! Request-scoped trace spans, causal edges, and the per-node event ring.

use spider_types::{NodeId, SimTime};

/// What a [`SpanEvent`] marks: the start of a phase, its end, or a
/// point-in-time milestone with no duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The request entered this phase.
    Enter,
    /// The request left this phase.
    Exit,
    /// A point-in-time milestone.
    Instant,
}

impl SpanKind {
    /// Stable single-character tag for rendering and digests.
    pub fn tag(self) -> char {
        match self {
            SpanKind::Enter => 'B',
            SpanKind::Exit => 'E',
            SpanKind::Instant => 'I',
        }
    }
}

/// One trace event: request `req` hit `phase` on `node` at simulated
/// time `at`. `Copy` and pointer-sized fields only, so recording is a
/// store into a preallocated ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Node the event was recorded on.
    pub node: NodeId,
    /// Request id (see [`crate::req_id`]); 0 is the channel-level
    /// sentinel for events not tied to one request.
    pub req: u64,
    /// Phase name (one of the `PHASE_*` constants).
    pub phase: &'static str,
    /// Enter, exit, or instant.
    pub kind: SpanKind,
}

/// One causal edge: a message carrying request `req` departed `src` for
/// `dst` at simulated time `at`. Recorded at the charge/departure point
/// of the sending handler, so `at` is the instant the bytes start
/// leaving the node. Together with the span milestones these edges let
/// [`crate::causal`] assemble a per-request DAG spanning nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeEvent {
    /// Departure time (virtual send instant of the emitting handler).
    pub at: SimTime,
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message kind label (e.g. `"request"`, `"commit-cast"`, `"reply"`).
    pub kind: &'static str,
    /// Request id carried by the message. A message carrying a batch
    /// records one edge per request; messages carrying no request
    /// payload (acks, vouches, window moves) record no edges.
    pub req: u64,
}

/// Fixed-capacity overwrite-oldest event buffer. Grows lazily up to its
/// capacity, then wraps; iteration yields events oldest-first. The
/// number of overwritten (lost) events is counted so reports can flag
/// silent truncation.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index the next event will be written at once the buffer is full.
    head: usize,
    /// Events overwritten since creation.
    dropped: u64,
}

impl<T: Copy> Ring<T> {
    /// An empty ring retaining at most `capacity` events (minimum 1).
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring { buf: Vec::new(), capacity: capacity.max(1), head: 0, dropped: 0 }
    }

    /// Appends an event, overwriting (and counting) the oldest once full.
    pub(crate) fn push(&mut self, ev: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Visits retained events oldest-first.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&T)) {
        let n = self.buf.len();
        for i in 0..n {
            let idx = if n < self.capacity { i } else { (self.head + i) % n };
            f(&self.buf[idx]);
        }
    }

    /// Events overwritten (lost to truncation) since creation.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> SpanEvent {
        SpanEvent {
            at: SimTime::from_nanos(i),
            node: NodeId(0),
            req: i,
            phase: "test",
            kind: SpanKind::Instant,
        }
    }

    #[test]
    fn ring_below_capacity_keeps_insertion_order() {
        let mut r = Ring::new(8);
        for i in 0..5 {
            r.push(ev(i));
        }
        let mut got = Vec::new();
        r.for_each(|e| got.push(e.req));
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_wraps_and_yields_oldest_first() {
        let mut r = Ring::new(3);
        for i in 0..7 {
            r.push(ev(i));
        }
        let mut got = Vec::new();
        r.for_each(|e| got.push(e.req));
        assert_eq!(got, vec![4, 5, 6]);
        assert_eq!(r.buf.len(), 3);
        assert_eq!(r.dropped(), 4, "four events were overwritten");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = Ring::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.buf.len(), 1);
        let mut got = Vec::new();
        r.for_each(|e| got.push(e.req));
        assert_eq!(got, vec![2]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn edge_ring_works_generically() {
        let mut r: Ring<EdgeEvent> = Ring::new(2);
        for i in 0..3u64 {
            r.push(EdgeEvent {
                at: SimTime::from_nanos(i),
                src: NodeId(0),
                dst: NodeId(1),
                kind: "cast",
                req: i,
            });
        }
        let mut got = Vec::new();
        r.for_each(|e| got.push(e.req));
        assert_eq!(got, vec![1, 2]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn kind_tags_are_distinct() {
        assert_eq!(SpanKind::Enter.tag(), 'B');
        assert_eq!(SpanKind::Exit.tag(), 'E');
        assert_eq!(SpanKind::Instant.tag(), 'I');
    }
}
