//! `spider-obs`: deterministic observability for the Spider workspace.
//!
//! Every bottleneck found so far (per-slot RSA, the RC receiver hash
//! wall, the current sender-CPU saturation) was located by ad-hoc printf
//! archaeology. This crate replaces that with five recording substrates and
//! an analysis layer, all against simulated time so they are
//! *reproducible artifacts* — the same seed yields the byte-identical
//! trace:
//!
//! 1. **Request-scoped trace spans** ([`SpanEvent`]): phase enter/exit/
//!    instant milestones keyed by a request id, recorded into bounded
//!    per-node ring buffers. Disabled recorders are a single branch per
//!    call, and recording itself never allocates once a ring has grown
//!    to capacity. Overwritten events are counted
//!    ([`ObsReport::spans_dropped`]) — truncation is never silent.
//! 2. **Causal edges** ([`EdgeEvent`]): cross-node message departures
//!    `(src, dst, kind, req, departure time)`, recorded at the sending
//!    handler's charge/departure point. Spans are per-node islands;
//!    edges are what links a client's submit to the consensus batch,
//!    the IRMC range that carried it, and the replica that replied.
//! 3. **CPU attribution** ([`Recorder::cpu_add`]): busy time per
//!    `(node, component, operation)`, accumulated at every `CostModel`
//!    charge site, exported as folded stacks for flamegraphs.
//! 4. **Exemplar reservoir** ([`Exemplar`]): full span/edge detail for
//!    the slowest K requests plus a deterministic uniform sample,
//!    retained outside the rings so fig7-scale traced runs stay
//!    bounded *and* the requests worth dissecting keep every event.
//!    Requests it had no room to capture are counted
//!    ([`ObsReport::captures_dropped`]).
//! 5. **Streaming health watchdog** ([`health`]): IRMC window-stall and
//!    view-change detectors and per-channel backpressure gauges, fed at
//!    runtime and emitting typed [`HealthEvent`]s on the sim timeline.
//!
//! The analysis layer ([`causal`]) assembles the spans and edges into
//! per-request causal chains and differential critical-path profiles
//! (p99.9 cohort vs. p50 cohort). Exporters ([`export`]) turn an
//! [`ObsReport`] into Chrome/Perfetto `trace_event` JSON, folded stacks
//! (CPU and critical-path), per-phase latency breakdowns (each a
//! log-bucketed [`Histogram`], ≤ 1/32 relative error up to p99.9), and a
//! health-event JSONL. [`export::fnv64`] digests any of those for
//! determinism double-run tests.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

pub mod causal;
pub mod export;
pub mod health;
mod metrics;
mod trace;

pub use health::HealthEvent;
use health::HealthMonitor;
pub use metrics::Histogram;
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

/// Recorder capacities. Every run uses the defaults; only this crate's
/// ring and reservoir tests set smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Span events retained per node; the ring overwrites its oldest
    /// events beyond this (counted in [`ObsReport::spans_dropped`]).
    pub(crate) span_capacity: usize,
    /// Causal edge events retained per (source) node; overwritten
    /// beyond this (counted in [`ObsReport::edges_dropped`]).
    pub(crate) edge_capacity: usize,
    /// Slowest requests kept with full span/edge detail in the
    /// exemplar reservoir.
    pub(crate) exemplar_slowest: usize,
    /// Uniform-sample slots of the exemplar reservoir (Algorithm R
    /// over completed requests, seeded from the sim seed).
    pub(crate) exemplar_sample: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            span_capacity: 1 << 15,
            edge_capacity: 1 << 15,
            exemplar_slowest: 64,
            exemplar_sample: 256,
        }
    }
}

/// Full span/edge detail of one retained request.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The request id.
    pub req: u64,
    /// When the request entered (its `request` span enter).
    pub started: SimTime,
    /// End-to-end latency.
    pub latency: SimTime,
    /// Every span event recorded for the request while it was open.
    pub spans: Vec<SpanEvent>,
    /// Every causal edge recorded for the request while it was open.
    pub edges: Vec<EdgeEvent>,
}

/// Per-request capture buffer while the request is in flight.
#[derive(Debug, Default)]
struct OpenReq {
    started: SimTime,
    spans: Vec<SpanEvent>,
    edges: Vec<EdgeEvent>,
}

/// Requests tracked in flight at once; beyond this new requests are not
/// captured for the reservoir (counted in [`ObsReport::captures_dropped`],
/// never silent).
const OPEN_CAP: usize = 1 << 14;

/// The per-simulation observability state: span rings, causal edge
/// rings, CPU attribution, the exemplar reservoir, and the streaming
/// health watchdog. A disabled recorder (the default) reduces every
/// record call to one branch.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    cfg: ObsConfig,
    rings: Vec<trace::Ring<SpanEvent>>,
    edge_rings: Vec<trace::Ring<EdgeEvent>>,
    cpu: BTreeMap<(u32, &'static str, &'static str), SimTime>,
    /// In-flight request capture for the exemplar reservoir.
    open: BTreeMap<u64, OpenReq>,
    open_overflow: u64,
    /// Slowest-K exemplars keyed by (latency, req).
    slowest: BTreeMap<(u64, u64), Exemplar>,
    /// Uniform reservoir sample (Algorithm R).
    sample: Vec<Exemplar>,
    completed: u64,
    /// xorshift64* state for the reservoir; seeded from the sim seed
    /// via [`Recorder::set_seed`] — deliberately *not* the sim's own
    /// RNG, so tracing never perturbs jitter draws (pure observer).
    rng_state: u64,
    health: Option<HealthMonitor>,
}

impl Recorder {
    /// A disabled recorder: every record call is a no-op.
    pub fn disabled() -> Self {
        Recorder::default()
    }

    /// An enabled recorder.
    pub fn enabled(cfg: ObsConfig) -> Self {
        Recorder {
            enabled: true,
            cfg,
            health: Some(HealthMonitor::new()),
            rng_state: 0x9E37_79B9_7F4A_7C15,
            ..Recorder::default()
        }
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Seeds the exemplar reservoir's sampler from the simulation seed,
    /// so exemplar selection is a deterministic function of the run.
    pub fn set_seed(&mut self, seed: u64) {
        self.rng_state = seed ^ 0x9E37_79B9_7F4A_7C15;
        if self.rng_state == 0 {
            self.rng_state = 0x2545_F491_4F6C_DD1D;
        }
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: tiny, deterministic, and private to the observer.
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Makes room for `node`'s rings (idempotent; cheap when disabled).
    pub fn ensure_node(&mut self, node: NodeId) {
        if !self.enabled {
            return;
        }
        let idx = node.0 as usize;
        while self.rings.len() <= idx {
            self.rings.push(trace::Ring::new(self.cfg.span_capacity));
            self.edge_rings.push(trace::Ring::new(self.cfg.edge_capacity));
        }
    }

    fn span(&mut self, at: SimTime, node: NodeId, req: u64, phase: &'static str, kind: SpanKind) {
        if !self.enabled {
            return;
        }
        self.ensure_node(node);
        let ev = SpanEvent { at, node, req, phase, kind };
        if let Some(ring) = self.rings.get_mut(node.0 as usize) {
            ring.push(ev);
        }
        self.observe_span(ev);
        if let Some(h) = &mut self.health {
            h.scan(at);
        }
    }

    /// Reservoir bookkeeping for a request-scoped span event.
    fn observe_span(&mut self, ev: SpanEvent) {
        if ev.req == 0 {
            return;
        }
        if ev.phase == PHASE_REQUEST && ev.kind == SpanKind::Enter {
            if self.open.len() >= OPEN_CAP {
                self.open_overflow += 1;
            } else {
                self.open
                    .entry(ev.req)
                    .or_insert_with(|| OpenReq { started: ev.at, ..OpenReq::default() });
            }
        }
        let finished = if let Some(open) = self.open.get_mut(&ev.req) {
            open.spans.push(ev);
            ev.phase == PHASE_REQUEST && ev.kind == SpanKind::Exit
        } else {
            false
        };
        if finished {
            let open = self.open.remove(&ev.req).expect("checked above");
            let latency = ev.at.saturating_sub(open.started);
            let ex = Exemplar {
                req: ev.req,
                started: open.started,
                latency,
                spans: open.spans,
                edges: open.edges,
            };
            // Slowest-K half of the reservoir.
            if self.cfg.exemplar_slowest > 0 {
                self.slowest.insert((latency.as_nanos(), ex.req), ex.clone());
                while self.slowest.len() > self.cfg.exemplar_slowest {
                    self.slowest.pop_first();
                }
            }
            // Uniform half (Algorithm R over the completion stream).
            self.completed += 1;
            if self.cfg.exemplar_sample > 0 {
                if self.sample.len() < self.cfg.exemplar_sample {
                    self.sample.push(ex);
                } else {
                    let j = self.next_rand() % self.completed;
                    if (j as usize) < self.sample.len() {
                        self.sample[j as usize] = ex;
                    }
                }
            }
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
        let ev = EdgeEvent { at, src, dst, kind, req };
        if let Some(ring) = self.edge_rings.get_mut(src.0 as usize) {
            ring.push(ev);
        }
        if req != 0 {
            if let Some(open) = self.open.get_mut(&req) {
                open.edges.push(ev);
            }
        }
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
    /// keep node order), exemplars and health events sort by request and
    /// time, so the report is a deterministic function of the run.
    pub fn report(&self) -> ObsReport {
        let mut spans: Vec<SpanEvent> = Vec::new();
        let mut spans_dropped = 0u64;
        for ring in &self.rings {
            ring.for_each(|e| spans.push(*e));
            spans_dropped += ring.dropped();
        }
        spans.sort_by_key(|e| (e.at, e.node.0, e.req, e.phase));
        let mut edges: Vec<EdgeEvent> = Vec::new();
        let mut edges_dropped = 0u64;
        for ring in &self.edge_rings {
            ring.for_each(|e| edges.push(*e));
            edges_dropped += ring.dropped();
        }
        edges.sort_by_key(|e| (e.at, e.src.0, e.dst.0, e.req, e.kind));
        let mut exemplars: Vec<Exemplar> = self.slowest.values().cloned().collect();
        exemplars.extend(self.sample.iter().cloned());
        exemplars.sort_by_key(|x| x.req);
        exemplars.dedup_by_key(|x| x.req);
        let (health, gauges) = match &self.health {
            Some(h) => (h.events(), h.gauges()),
            None => (Vec::new(), BTreeMap::new()),
        };
        ObsReport {
            spans,
            edges,
            cpu: self.cpu.clone(),
            spans_dropped,
            edges_dropped,
            captures_dropped: self.open_overflow,
            exemplars,
            health,
            gauges,
        }
    }
}

/// An owned, deterministic snapshot of a [`Recorder`].
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// All retained span events in global `(time, node)` order.
    pub spans: Vec<SpanEvent>,
    /// All retained causal edges in global `(time, src)` order.
    pub edges: Vec<EdgeEvent>,
    /// Attributed busy time keyed by `(node, component, op)`.
    pub cpu: BTreeMap<(u32, &'static str, &'static str), SimTime>,
    /// Span events lost to ring truncation (0 = the spans are complete).
    pub spans_dropped: u64,
    /// Edge events lost to ring truncation.
    pub edges_dropped: u64,
    /// Requests the exemplar reservoir did not capture because 16 384
    /// others were already in flight (0 = every request was a candidate).
    pub captures_dropped: u64,
    /// Exemplar requests with full span/edge detail: the slowest K plus
    /// a deterministic uniform sample, deduped, sorted by request id.
    pub exemplars: Vec<Exemplar>,
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
        assert!(rep.edges.is_empty() && rep.exemplars.is_empty() && rep.health.is_empty());
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
    fn ring_overwrites_oldest_beyond_capacity_and_counts_drops() {
        let mut r = Recorder::enabled(ObsConfig { span_capacity: 4, ..ObsConfig::default() });
        for i in 0..10u64 {
            r.span_instant(SimTime::from_millis(i), NodeId(0), i, PHASE_COMMIT);
        }
        let rep = r.report();
        assert_eq!(rep.spans.len(), 4);
        assert_eq!(rep.spans.first().map(|e| e.req), Some(6));
        assert_eq!(rep.spans.last().map(|e| e.req), Some(9));
        assert_eq!(rep.spans_dropped, 6, "truncation must be counted, never silent");
    }

    #[test]
    fn edges_merge_in_time_order_with_drop_count() {
        let mut r = Recorder::enabled(ObsConfig { edge_capacity: 2, ..ObsConfig::default() });
        r.edge(SimTime::from_millis(3), NodeId(0), NodeId(1), "request", 7);
        r.edge(SimTime::from_millis(1), NodeId(1), NodeId(2), "reply", 7);
        r.edge(SimTime::from_millis(4), NodeId(0), NodeId(2), "request", 8);
        r.edge(SimTime::from_millis(5), NodeId(0), NodeId(3), "request", 9);
        let rep = r.report();
        let order: Vec<u64> = rep.edges.iter().map(|e| e.req).collect();
        assert_eq!(order, vec![7, 8, 9]);
        assert_eq!(rep.edges_dropped, 1);
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
    fn reservoir_keeps_slowest_and_samples_uniformly() {
        let mut r = Recorder::enabled(ObsConfig {
            exemplar_slowest: 2,
            exemplar_sample: 3,
            ..ObsConfig::default()
        });
        r.set_seed(42);
        for i in 0..50u64 {
            let req = req_id(0, i + 1);
            let base = SimTime::from_millis(10 * i);
            r.span_enter(base, NodeId(0), req, PHASE_REQUEST);
            r.edge(base + SimTime::from_millis(1), NodeId(0), NodeId(1), "request", req);
            // Request 17 is the slow outlier.
            let lat = if i == 17 { 500 } else { 1 + i % 3 };
            r.span_exit(base + SimTime::from_millis(lat), NodeId(0), req, PHASE_REQUEST);
        }
        let rep = r.report();
        assert!(rep.exemplars.len() <= 5);
        let slowest = rep.exemplars.iter().max_by_key(|x| x.latency).expect("exemplars recorded");
        assert_eq!(slowest.req, req_id(0, 18), "the outlier must be retained");
        assert_eq!(slowest.latency, SimTime::from_millis(500));
        assert_eq!(slowest.spans.len(), 2);
        assert_eq!(slowest.edges.len(), 1, "edges captured alongside spans");
        // Same seed, same selection.
        let again = {
            let mut r2 = Recorder::enabled(ObsConfig {
                exemplar_slowest: 2,
                exemplar_sample: 3,
                ..ObsConfig::default()
            });
            r2.set_seed(42);
            for i in 0..50u64 {
                let req = req_id(0, i + 1);
                let base = SimTime::from_millis(10 * i);
                r2.span_enter(base, NodeId(0), req, PHASE_REQUEST);
                r2.edge(base + SimTime::from_millis(1), NodeId(0), NodeId(1), "request", req);
                let lat = if i == 17 { 500 } else { 1 + i % 3 };
                r2.span_exit(base + SimTime::from_millis(lat), NodeId(0), req, PHASE_REQUEST);
            }
            r2.report()
        };
        let ids: Vec<u64> = rep.exemplars.iter().map(|x| x.req).collect();
        let ids2: Vec<u64> = again.exemplars.iter().map(|x| x.req).collect();
        assert_eq!(ids, ids2, "exemplar selection must be seed-deterministic");
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
    fn requests_beyond_the_open_cap_are_counted() {
        let mut r = Recorder::enabled(ObsConfig::default());
        for i in 0..=OPEN_CAP as u64 {
            r.span_enter(SimTime::from_millis(i), NodeId(0), req_id(0, i + 1), PHASE_REQUEST);
        }
        assert_eq!(r.report().captures_dropped, 1, "a request turned away is counted");
    }

    #[test]
    fn req_id_is_injective_over_practical_ranges() {
        assert_ne!(req_id(1, 0), req_id(0, 1));
        assert_ne!(req_id(10_000, 3), req_id(10_001, 3));
        assert_eq!(req_id(5, 9) >> 40, 5);
    }
}
