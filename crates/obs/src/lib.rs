//! `spider-obs`: deterministic observability for the Spider workspace.
//!
//! Every bottleneck found so far (per-slot RSA, the RC receiver hash
//! wall, the current sender-CPU saturation) was located by ad-hoc printf
//! archaeology. This crate replaces that with four recording substrates and
//! an analysis layer, all against simulated time so they are
//! *reproducible artifacts* — the same seed yields the byte-identical
//! trace:
//!
//! 1. **Request-scoped trace spans** ([`SpanEvent`]): phase enter/exit/
//!    instant milestones keyed by a request id, recorded into per-node
//!    logs that keep every event. Disabled recorders are a single branch
//!    per call; an enabled one pushes onto the node's log.
//! 2. **Causal edges** ([`EdgeEvent`]): cross-node message departures
//!    `(src, dst, kind, req, departure time)`, recorded at the sending
//!    handler's charge/departure point into the sender's log. Spans are
//!    per-node islands; edges are what links a client's submit to the
//!    consensus batch, the IRMC range that carried it, and the replica
//!    that replied.
//! 3. **CPU attribution** ([`Recorder::cpu_add`]): busy time per
//!    `(node, component, operation)`, accumulated at every `CostModel`
//!    charge site, exported as folded stacks for flamegraphs.
//! 4. **Streaming health watchdog** ([`health`]): IRMC window-stall and
//!    view-change detectors and per-channel backpressure gauges, fed at
//!    runtime and emitting typed [`HealthEvent`]s on the sim timeline.
//!
//! The analysis layer ([`causal`]) assembles the spans and edges into
//! per-request causal chains and differential critical-path profiles
//! (p99.9 cohort vs. p50 cohort). Exporters ([`export`]) turn an
//! [`ObsReport`] into Chrome/Perfetto `trace_event` JSON, folded stacks
//! (CPU and critical-path), per-phase latency breakdowns (exact, nearest
//! rank over every recorded request), and a health-event JSONL. [`export::fnv64`] digests any of those for
//! determinism double-run tests.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

pub mod causal;
pub mod export;
pub mod health;
mod trace;

pub use health::HealthEvent;
use health::HealthMonitor;
pub use trace::{EdgeEvent, SpanEvent, SpanKind};

use spider_types::{NodeId, SimTime};
use std::collections::BTreeMap;

/// Milestone phase: a client accepted a request (span enter) or saw its
/// reply quorum (span exit).
pub const PHASE_REQUEST: &str = "request";
/// Milestone phase: the agreement group handed the request to consensus.
pub const PHASE_PROPOSE: &str = "propose";
/// Milestone phase: consensus delivered (committed) the request.
pub const PHASE_COMMIT: &str = "commit";
/// Milestone phase: the committed request was shipped on a commit channel.
pub const PHASE_SHIP: &str = "ship";
/// Milestone phase: an execution replica received the committed request.
pub const PHASE_DELIVER: &str = "deliver";
/// Node-local phase: application execution of one committed request.
pub const PHASE_EXEC: &str = "exec";
/// Node-local phase: cutting one consensus batch out of the backlog.
pub const PHASE_BATCH: &str = "batch";
/// Channel-level instant: an IRMC-RC sender re-cast an unacked range
/// (liveness path; expected after partitions heal).
pub const PHASE_RECAST: &str = "recast";

/// Request id for client request `seq` of client `client`: unique across
/// the deployment, stable across runs.
pub fn req_id(client: u32, seq: u64) -> u64 {
    ((client as u64) << 40) | (seq & 0xff_ffff_ffff)
}

/// Recorder settings. It has no field: the recorder keeps every span
/// and edge, so there is nothing to size.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsConfig {}

/// The per-simulation observability state: per-node span and causal
/// edge logs, CPU attribution, and the streaming health watchdog. A
/// disabled recorder (the default) reduces every record call to one
/// branch.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Vec<SpanEvent>>,
    edges: Vec<Vec<EdgeEvent>>,
    cpu: BTreeMap<(u32, &'static str, &'static str), SimTime>,
    health: Option<HealthMonitor>,
}

impl Recorder {
    /// A disabled recorder: every record call is a no-op.
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// An enabled recorder.
    pub fn enabled(_cfg: ObsConfig) -> Self {
        Recorder { enabled: true, health: Some(HealthMonitor::new()), ..Recorder::default() }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Makes room for `node`'s logs (idempotent; cheap when disabled).
    pub fn ensure_node(&mut self, node: NodeId) {
        if !self.enabled {
            return;
        }
        let idx = node.0 as usize;
        if self.spans.len() <= idx {
            self.spans.resize_with(idx + 1, Vec::new);
            self.edges.resize_with(idx + 1, Vec::new);
        }
    }

    fn span(&mut self, at: SimTime, node: NodeId, req: u64, phase: &'static str, kind: SpanKind) {
        if !self.enabled {
            return;
        }
        self.ensure_node(node);
        self.spans[node.0 as usize].push(SpanEvent { at, node, req, phase, kind });
        if let Some(h) = &mut self.health {
            h.scan(at);
        }
    }

    /// Records a span enter for `(req, phase)` on `node` at `at`.
    pub fn span_enter(&mut self, at: SimTime, node: NodeId, req: u64, phase: &'static str) {
        self.span(at, node, req, phase, SpanKind::Enter);
    }

    /// Records a span exit for `(req, phase)` on `node` at `at`.
    pub fn span_exit(&mut self, at: SimTime, node: NodeId, req: u64, phase: &'static str) {
        self.span(at, node, req, phase, SpanKind::Exit);
    }

    /// Records an instant milestone for `(req, phase)` on `node` at `at`.
    pub fn span_instant(&mut self, at: SimTime, node: NodeId, req: u64, phase: &'static str) {
        self.span(at, node, req, phase, SpanKind::Instant);
    }

    /// Records a causal edge: a message of `kind` carrying `req`
    /// departed `src` for `dst` at `at`.
    pub fn edge(&mut self, at: SimTime, src: NodeId, dst: NodeId, kind: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        self.ensure_node(src);
        self.edges[src.0 as usize].push(EdgeEvent { at, src, dst, kind, req });
        if let Some(h) = &mut self.health {
            h.scan(at);
        }
    }

    /// Attributes `cost` of busy time to `(node, component, op)`.
    pub fn cpu_add(
        &mut self,
        node: NodeId,
        component: &'static str,
        op: &'static str,
        cost: SimTime,
    ) {
        if !self.enabled {
            return;
        }
        let slot = self.cpu.entry((node.0, component, op)).or_insert(SimTime::ZERO);
        *slot += cost;
    }

    /// Feeds a channel progress mark (window movement) to the watchdog.
    pub fn health_mark(&mut self, at: SimTime, node: NodeId, component: &'static str, key: u32) {
        if let Some(h) = &mut self.health {
            h.mark(at, node, component, key);
        }
    }

    /// Feeds a channel's outstanding-work gauge to the watchdog.
    pub fn health_pending(
        &mut self,
        at: SimTime,
        node: NodeId,
        component: &'static str,
        key: u32,
        pending: u64,
    ) {
        if let Some(h) = &mut self.health {
            h.pending(at, node, component, key, pending);
        }
    }

    /// Feeds a consensus view observation to the watchdog.
    pub fn health_view(&mut self, at: SimTime, node: NodeId, view: u64) {
        if let Some(h) = &mut self.health {
            h.view(at, node, view);
        }
    }

    /// Snapshots everything recorded so far into an owned report. Span
    /// and edge events merge across nodes in global time order (ties
    /// keep node order) and health events sort by time, so the report is
    /// a deterministic function of the run.
    pub fn report(&self) -> ObsReport {
        let mut spans = self.spans.concat();
        spans.sort_by_key(|e| (e.at, e.node.0, e.req, e.phase));
        let mut edges = self.edges.concat();
        edges.sort_by_key(|e| (e.at, e.src.0, e.dst.0, e.req, e.kind));
        let (health, gauges) = match &self.health {
            Some(h) => (h.events(), h.gauges()),
            None => (Vec::new(), BTreeMap::new()),
        };
        ObsReport {
            spans,
            edges,
            cpu: self.cpu.clone(),
            spans_dropped: 0,
            edges_dropped: 0,
            health,
            gauges,
        }
    }
}

/// An owned, deterministic snapshot of a [`Recorder`].
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// All span events in global `(time, node)` order.
    pub spans: Vec<SpanEvent>,
    /// All causal edges in global `(time, src)` order.
    pub edges: Vec<EdgeEvent>,
    /// Attributed busy time keyed by `(node, component, op)`.
    pub cpu: BTreeMap<(u32, &'static str, &'static str), SimTime>,
    /// Span events lost: always 0, the recorder keeps every event.
    pub spans_dropped: u64,
    /// Edge events lost: always 0, the recorder keeps every event.
    pub edges_dropped: u64,
    /// Watchdog events in time order.
    pub health: Vec<HealthEvent>,
    /// Backpressure gauges keyed by `(node, component, key)` as
    /// `(current, high_water)` outstanding work.
    pub gauges: BTreeMap<(u32, &'static str, u32), (u64, u64)>,
}

impl ObsReport {
    /// Total attributed busy time per `(component, op)` across all nodes.
    pub fn cpu_by_op(&self) -> BTreeMap<(&'static str, &'static str), SimTime> {
        let mut out: BTreeMap<(&'static str, &'static str), SimTime> = BTreeMap::new();
        for (&(_, component, op), &t) in &self.cpu {
            let slot = out.entry((component, op)).or_insert(SimTime::ZERO);
            *slot += t;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.span_enter(SimTime::from_millis(1), NodeId(0), 1, PHASE_REQUEST);
        r.edge(SimTime::from_millis(1), NodeId(0), NodeId(1), "request", 1);
        r.cpu_add(NodeId(0), "c", "o", SimTime::from_micros(3));
        r.health_mark(SimTime::from_millis(1), NodeId(0), "commit", 0);
        let rep = r.report();
        assert!(rep.spans.is_empty() && rep.cpu.is_empty());
        assert!(rep.edges.is_empty() && rep.health.is_empty());
    }

    #[test]
    fn spans_merge_in_time_order() {
        let mut r = Recorder::enabled(ObsConfig::default());
        r.span_instant(SimTime::from_millis(5), NodeId(1), 7, PHASE_COMMIT);
        r.span_instant(SimTime::from_millis(2), NodeId(2), 7, PHASE_PROPOSE);
        r.span_instant(SimTime::from_millis(5), NodeId(0), 7, PHASE_SHIP);
        let rep = r.report();
        let order: Vec<&str> = rep.spans.iter().map(|e| e.phase).collect();
        assert_eq!(order, vec![PHASE_PROPOSE, PHASE_SHIP, PHASE_COMMIT]);
    }

    #[test]
    fn a_report_keeps_every_event() {
        let n = 40_000u64;
        let mut r = Recorder::enabled(ObsConfig::default());
        for i in 0..n {
            r.span_instant(SimTime::from_nanos(i), NodeId(0), i, PHASE_COMMIT);
            r.edge(SimTime::from_nanos(i), NodeId(0), NodeId(1), "request", i);
        }
        let rep = r.report();
        assert_eq!((rep.spans.len(), rep.edges.len()), (40_000, 40_000));
        assert!(rep.spans.iter().map(|e| e.req).eq(0..n), "spans come back in order");
        assert!(rep.edges.iter().map(|e| e.req).eq(0..n), "edges come back in order");
        assert_eq!((rep.spans_dropped, rep.edges_dropped), (0, 0));
    }

    #[test]
    fn edges_merge_in_time_order_with_drop_count() {
        let mut r = Recorder::enabled(ObsConfig::default());
        r.edge(SimTime::from_millis(3), NodeId(0), NodeId(1), "request", 7);
        r.edge(SimTime::from_millis(1), NodeId(1), NodeId(2), "reply", 6);
        r.edge(SimTime::from_millis(4), NodeId(0), NodeId(2), "request", 8);
        r.edge(SimTime::from_millis(5), NodeId(0), NodeId(3), "request", 9);
        let rep = r.report();
        let order: Vec<u64> = rep.edges.iter().map(|e| e.req).collect();
        assert_eq!(order, vec![6, 7, 8, 9]);
        assert_eq!(rep.edges_dropped, 0);
    }

    #[test]
    fn cpu_attribution_accumulates_per_key() {
        let mut r = Recorder::enabled(ObsConfig::default());
        r.cpu_add(NodeId(0), "sender", "range_sign", SimTime::from_micros(600));
        r.cpu_add(NodeId(0), "sender", "range_sign", SimTime::from_micros(600));
        r.cpu_add(NodeId(1), "sender", "range_sign", SimTime::from_micros(600));
        r.cpu_add(NodeId(0), "sender", "vouch_mac", SimTime::from_micros(2));
        let rep = r.report();
        let by_op = rep.cpu_by_op();
        assert_eq!(by_op[&("sender", "range_sign")], SimTime::from_micros(1800));
        assert_eq!(by_op[&("sender", "vouch_mac")], SimTime::from_micros(2));
    }

    #[test]
    fn health_events_surface_in_report() {
        let mut r = Recorder::enabled(ObsConfig::default());
        r.health_pending(SimTime::from_secs(1), NodeId(4), "commit", 2, 8);
        // Silence past the stall deadline; a span triggers the lazy scan.
        r.span_instant(SimTime::from_secs(4), NodeId(0), 0, PHASE_RECAST);
        let rep = r.report();
        assert_eq!(rep.health.len(), 1);
        assert!(matches!(rep.health[0], HealthEvent::IrmcWindowStall { .. }));
        assert_eq!(rep.gauges[&(4, "commit", 2)], (8, 8));
    }

    #[test]
    fn req_id_is_injective_over_practical_ranges() {
        assert_ne!(req_id(1, 0), req_id(0, 1));
        assert_ne!(req_id(10_000, 3), req_id(10_001, 3));
        assert_eq!(req_id(5, 9) >> 40, 5);
    }
}
