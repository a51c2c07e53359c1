//! Request-scoped trace spans and causal edges.

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
/// time `at`. `Copy` and pointer-sized fields only, so recording is one
/// push onto the node's log.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_tags_are_distinct() {
        assert_eq!(SpanKind::Enter.tag(), 'B');
        assert_eq!(SpanKind::Exit.tag(), 'E');
        assert_eq!(SpanKind::Instant.tag(), 'I');
    }
}
