//! Causal trace assembly and critical-path tail forensics.
//!
//! The span logs record per-node milestones and the edge logs record
//! cross-node message departures; neither alone says *why* a p99.9
//! request was slow. This module joins them:
//!
//! 1. [`assemble`] groups a report's spans and edges per request into a
//!    [`RequestPath`] — the request's causal chain across nodes. The
//!    per-request event set is a DAG in general (broadcasts fan out;
//!    four replicas deliver the same commit); the *blocking* chain is
//!    what determines latency, so for every milestone `(phase, kind)`
//!    the first occurrence is kept (the first replica to deliver is the
//!    one that unblocked progress — the same convention as
//!    [`crate::export::phase_breakdown`]), and for every edge kind the
//!    first departure. The result is a single time-ordered chain.
//! 2. [`RequestPath::segments`] classifies each gap of the chain as
//!    **transit** (an edge departure followed by activity on the edge's
//!    destination), **cpu** (a phase's enter→exit on one node — span
//!    timestamps advance with charged work, so this is the handler CPU
//!    spent inside the phase), **emit** (same-node work ending at a
//!    departure), or **queue** (any other same-node wait). Each segment
//!    is keyed `(hop, component, op)`.
//! 3. [`differential_profile`] aggregates segment time for the p99.9
//!    cohort against the p50 cohort, so "what does the tail spend its
//!    time on *that the median does not*" is one table. Exported as
//!    folded stacks by [`crate::export::critical_path_folded`].
//!
//! Everything here is a pure function of the [`ObsReport`], so the
//! forensics of a run are as reproducible as the run itself, and since
//! the recorder keeps every event, every completed request has its full
//! chain.

use crate::{ObsReport, SpanKind, PHASE_REQUEST};
use spider_types::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// One step of a request's causal chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A span milestone `(node, phase, kind)` at a time.
    Span { at: SimTime, node: u32, phase: &'static str, kind: SpanKind },
    /// A message departure `src -> dst` of a kind at a time.
    Edge { at: SimTime, src: u32, dst: u32, kind: &'static str },
}

impl Step {
    fn at(&self) -> SimTime {
        match *self {
            Step::Span { at, .. } | Step::Edge { at, .. } => at,
        }
    }

    fn node(&self) -> u32 {
        match *self {
            Step::Span { node, .. } => node,
            Step::Edge { src, .. } => src,
        }
    }

    fn label(&self) -> &'static str {
        match *self {
            Step::Span { phase, .. } => phase,
            Step::Edge { kind, .. } => kind,
        }
    }
}

/// How a critical-path segment spent its time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegmentKind {
    /// On the wire between two nodes.
    Transit,
    /// Charged handler CPU inside a phase (enter→exit on one node).
    Cpu,
    /// Same-node work ending at a message departure.
    Emit,
    /// Same-node wait not attributable to charged work.
    Queue,
}

impl SegmentKind {
    /// Stable lowercase name (the `op` of the segment key).
    pub fn op(self) -> &'static str {
        match self {
            SegmentKind::Transit => "transit",
            SegmentKind::Cpu => "cpu",
            SegmentKind::Emit => "emit",
            SegmentKind::Queue => "queue",
        }
    }
}

/// One classified segment of a request's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// The hop the time was spent on: an edge kind (`"commit-cast"`)
    /// for transit, `"local"` otherwise.
    pub hop: &'static str,
    /// What was being waited on: `"wire"` for transit, the next
    /// milestone's phase or the departing edge's kind otherwise.
    pub component: &'static str,
    /// Segment kind.
    pub kind: SegmentKind,
    /// Time spent in this segment.
    pub dur: SimTime,
}

/// A request's assembled critical path.
#[derive(Debug, Clone)]
pub struct RequestPath {
    /// The request id.
    pub req: u64,
    /// End-to-end latency (request enter to request exit).
    pub latency: SimTime,
    segments: Vec<PathSegment>,
}

impl RequestPath {
    /// The classified segments in time order. Their durations sum to
    /// the span from the first to the last event of the chain.
    pub fn segments(&self) -> &[PathSegment] {
        &self.segments
    }
}

/// Collects each request's chain steps from its spans and edges.
fn steps_per_request(report: &ObsReport) -> BTreeMap<u64, Vec<Step>> {
    let mut out: BTreeMap<u64, Vec<Step>> = BTreeMap::new();
    for e in report.spans.iter().filter(|e| e.req != 0) {
        out.entry(e.req).or_default().push(Step::Span {
            at: e.at,
            node: e.node.0,
            phase: e.phase,
            kind: e.kind,
        });
    }
    for e in report.edges.iter().filter(|e| e.req != 0) {
        out.entry(e.req).or_default().push(Step::Edge {
            at: e.at,
            src: e.src.0,
            dst: e.dst.0,
            kind: e.kind,
        });
    }
    out
}

/// Reduces one request's steps to its blocking chain: first occurrence
/// per span `(phase, kind)` milestone and per edge kind, time-ordered.
fn blocking_chain(steps: &[Step]) -> Vec<Step> {
    let mut sorted: Vec<Step> = steps.to_vec();
    sorted.sort_by_key(|s| (s.at(), s.node(), s.label()));
    let mut span_taken: BTreeSet<(&'static str, char)> = BTreeSet::new();
    let mut edge_taken: BTreeSet<&'static str> = BTreeSet::new();
    let mut chain = Vec::new();
    for s in sorted {
        let fresh = match s {
            Step::Span { phase, kind, .. } => span_taken.insert((phase, kind.tag())),
            Step::Edge { kind, .. } => edge_taken.insert(kind),
        };
        if fresh {
            chain.push(s);
        }
    }
    chain
}

/// Classifies the gap between two consecutive chain steps.
fn classify(prev: &Step, next: &Step) -> (&'static str, &'static str, SegmentKind) {
    if let Step::Edge { dst, kind, .. } = *prev {
        if next.node() == dst {
            return (kind, "wire", SegmentKind::Transit);
        }
    }
    if prev.node() == next.node() {
        if let (
            Step::Span { phase: p0, kind: SpanKind::Enter, .. },
            Step::Span { phase: p1, kind: SpanKind::Exit, .. },
        ) = (prev, next)
        {
            if p0 == p1 {
                return ("local", p0, SegmentKind::Cpu);
            }
        }
        if let Step::Edge { kind, .. } = *next {
            return ("local", kind, SegmentKind::Emit);
        }
        return ("local", next.label(), SegmentKind::Queue);
    }
    // Cross-node gap with no recorded edge: attribute it to the hop
    // anyway so path time stays complete.
    ("cross", next.label(), SegmentKind::Transit)
}

/// Assembles the critical path of every *complete* request in the
/// report (one with both the `request` enter and exit milestone).
pub fn assemble(report: &ObsReport) -> Vec<RequestPath> {
    let mut out = Vec::new();
    for (req, steps) in steps_per_request(report) {
        let chain = blocking_chain(&steps);
        let mark = |want: SpanKind| {
            chain.iter().find_map(|s| match *s {
                Step::Span { at, phase, kind, .. } if phase == PHASE_REQUEST && kind == want => {
                    Some(at)
                }
                Step::Span { .. } | Step::Edge { .. } => None,
            })
        };
        let (Some(enter), Some(exit)) = (mark(SpanKind::Enter), mark(SpanKind::Exit)) else {
            continue;
        };
        if exit < enter {
            continue;
        }
        let mut segments = Vec::new();
        for pair in chain.windows(2) {
            let dur = pair[1].at().saturating_sub(pair[0].at());
            if dur == SimTime::ZERO {
                continue;
            }
            let (hop, component, kind) = classify(&pair[0], &pair[1]);
            segments.push(PathSegment { hop, component, kind, dur });
        }
        out.push(RequestPath { req, latency: exit - enter, segments });
    }
    out
}

/// One aggregated row of a cohort's critical-path profile.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Segment hop (edge kind, `"local"`, or `"cross"`).
    pub hop: &'static str,
    /// Segment component.
    pub component: &'static str,
    /// Segment operation (`transit`/`cpu`/`emit`/`queue`).
    pub op: &'static str,
    /// Total time across the cohort's requests.
    pub total: SimTime,
    /// Share of the cohort's total critical-path time (0.0–1.0).
    pub share: f64,
    /// Requests contributing to this row.
    pub count: u64,
}

/// A cohort's aggregated critical-path profile, rows sorted largest
/// share first (ties broken by key for determinism).
#[derive(Debug, Clone)]
pub struct CohortProfile {
    /// Cohort label: `"p50"` or `"p999"`.
    pub cohort: &'static str,
    /// Requests in the cohort.
    pub requests: u64,
    /// Mean end-to-end latency of the cohort.
    pub mean_latency: SimTime,
    /// Aggregated rows.
    pub rows: Vec<ProfileRow>,
}

fn aggregate(cohort: &'static str, paths: &[&RequestPath]) -> CohortProfile {
    let mut acc: BTreeMap<(&'static str, &'static str, &'static str), (SimTime, u64)> =
        BTreeMap::new();
    let mut total = SimTime::ZERO;
    let mut lat_sum = 0u128;
    for p in paths {
        let mut seen: BTreeSet<(&'static str, &'static str, &'static str)> = BTreeSet::new();
        lat_sum += p.latency.as_nanos() as u128;
        for s in p.segments() {
            let key = (s.hop, s.component, s.kind.op());
            let slot = acc.entry(key).or_insert((SimTime::ZERO, 0));
            slot.0 += s.dur;
            if seen.insert(key) {
                slot.1 += 1;
            }
            total += s.dur;
        }
    }
    let mut rows: Vec<ProfileRow> = acc
        .into_iter()
        .map(|((hop, component, op), (t, count))| ProfileRow {
            hop,
            component,
            op,
            total: t,
            share: if total > SimTime::ZERO {
                t.as_nanos() as f64 / total.as_nanos() as f64
            } else {
                0.0
            },
            count,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.total
            .cmp(&a.total)
            .then_with(|| (a.hop, a.component, a.op).cmp(&(b.hop, b.component, b.op)))
    });
    let n = paths.len() as u64;
    CohortProfile {
        cohort,
        requests: n,
        mean_latency: if n > 0 {
            SimTime::from_nanos((lat_sum / n as u128) as u64)
        } else {
            SimTime::ZERO
        },
        rows,
    }
}

/// The `q`-quantile (`0.0 ..= 1.0`) of an ascending slice by nearest
/// rank: the sample at 1-based rank `max(1, ceil(q·n))`, or `None` for an
/// empty slice.
pub(crate) fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank - 1).copied()
}

/// Builds the differential profile: the p50 cohort (latency between the
/// 40th and 60th percentile) against the p99.9 cohort (latency at or
/// above the 99.9th percentile; always at least the slowest request).
/// Returns `[p50, p999]`, each aggregated with [`CohortProfile`] rows.
pub fn differential_profile(paths: &[RequestPath]) -> Vec<CohortProfile> {
    let mut lats: Vec<SimTime> = paths.iter().map(|p| p.latency).collect();
    lats.sort_unstable();
    let at = |q: f64| nearest_rank(&lats, q).unwrap_or(SimTime::ZERO);
    let (p40, p60, p999) = (at(0.40), at(0.60), at(0.999));
    let mid: Vec<&RequestPath> =
        paths.iter().filter(|p| p.latency >= p40 && p.latency <= p60).collect();
    let tail: Vec<&RequestPath> = paths.iter().filter(|p| p.latency >= p999).collect();
    vec![aggregate("p50", &mid), aggregate("p999", &tail)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{req_id, ObsConfig, Recorder};
    use spider_types::NodeId;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// One request: client 0 enters, emits a `request` edge to node 1,
    /// node 1 works exec enter→exit, replies over an edge, client exits.
    fn record_request(r: &mut Recorder, c: u32, slow_exec: u64) {
        let req = req_id(c, 1);
        let base = ms(10 * c as u64);
        r.span_enter(base, NodeId(c), req, PHASE_REQUEST);
        r.edge(base + ms(1), NodeId(c), NodeId(10), "request", req);
        r.span_enter(base + ms(5), NodeId(10), req, crate::PHASE_EXEC);
        r.span_exit(base + ms(5 + slow_exec), NodeId(10), req, crate::PHASE_EXEC);
        r.edge(base + ms(6 + slow_exec), NodeId(10), NodeId(c), "reply", req);
        r.span_exit(base + ms(10 + slow_exec), NodeId(c), req, PHASE_REQUEST);
    }

    #[test]
    fn assemble_classifies_transit_cpu_emit_queue() {
        let mut r = Recorder::enabled(ObsConfig::default());
        record_request(&mut r, 0, 1);
        let paths = assemble(&r.report());
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.latency, ms(11));
        let kinds: Vec<(&str, &str, &str)> =
            p.segments().iter().map(|s| (s.hop, s.component, s.kind.op())).collect();
        assert_eq!(
            kinds,
            vec![
                ("local", "request", "emit"),   // enter -> edge departure
                ("request", "wire", "transit"), // edge -> first event on node 10
                ("local", "exec", "cpu"),       // exec enter -> exit
                ("local", "reply", "emit"),     // exec exit -> reply departure
                ("reply", "wire", "transit"),   // reply edge -> client exit
            ]
        );
        let sum: SimTime = p.segments().iter().map(|s| s.dur).fold(SimTime::ZERO, |a, b| a + b);
        assert_eq!(sum, ms(11), "segments tile the whole chain");
    }

    #[test]
    fn incomplete_requests_are_skipped() {
        let mut r = Recorder::enabled(ObsConfig::default());
        let req = req_id(0, 1);
        r.span_enter(ms(0), NodeId(0), req, PHASE_REQUEST);
        r.edge(ms(1), NodeId(0), NodeId(1), "request", req);
        // no exit
        assert!(assemble(&r.report()).is_empty());
    }

    #[test]
    fn differential_profile_separates_tail_from_median() {
        let mut r = Recorder::enabled(ObsConfig::default());
        // 99 fast requests (1ms exec) and one slow outlier (200ms exec).
        for c in 0..99 {
            record_request(&mut r, c, 1);
        }
        record_request(&mut r, 99, 200);
        let paths = assemble(&r.report());
        assert_eq!(paths.len(), 100);
        let profiles = differential_profile(&paths);
        assert_eq!(profiles.len(), 2);
        let p50 = &profiles[0];
        let tail = &profiles[1];
        assert_eq!(p50.cohort, "p50");
        assert_eq!(tail.cohort, "p999");
        assert_eq!(tail.requests, 1, "one request at/above p99.9");
        // The tail cohort's dominant row is the exec cpu segment.
        let top = &tail.rows[0];
        assert_eq!((top.hop, top.component, top.op), ("local", "exec", "cpu"));
        assert!(top.share > 0.9, "200/211 of the outlier's path is exec: {}", top.share);
        // The median cohort is dominated by everything but exec cpu.
        let p50_top = &p50.rows[0];
        assert_ne!((p50_top.hop, p50_top.component, p50_top.op), ("local", "exec", "cpu"));
        // Shares sum to 1 per cohort.
        let s: f64 = tail.rows.iter().map(|r| r.share).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_fanout_keeps_first_milestone_only() {
        let mut r = Recorder::enabled(ObsConfig::default());
        let req = req_id(0, 1);
        r.span_enter(ms(0), NodeId(0), req, PHASE_REQUEST);
        // Fan-out: three edges of the same kind; the first one is the chain.
        for (i, t) in [(1u32, 1u64), (2, 2), (3, 3)] {
            r.edge(ms(t), NodeId(0), NodeId(i), "request", req);
        }
        // Three replicas deliver; only the first unblocks progress.
        for (i, t) in [(1u32, 5u64), (2, 7), (3, 9)] {
            r.span_instant(ms(t), NodeId(i), req, crate::PHASE_DELIVER);
        }
        r.span_exit(ms(10), NodeId(0), req, PHASE_REQUEST);
        let paths = assemble(&r.report());
        assert_eq!(paths.len(), 1);
        // Chain: enter@0, edge@1 (->n1), deliver@5 (n1), exit@10.
        let segs = paths[0].segments();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[1].dur, ms(4), "transit to the *first* deliver");
        assert_eq!(segs[1].kind.op(), "transit");
    }
}
