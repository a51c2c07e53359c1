//! Actors and the handler-side API ([`Context`]).

use rand::rngs::SmallRng;
use spider_obs::{Recorder, PHASE_REQUEST};
use spider_types::{NodeId, SimTime, WireSize};
use std::collections::BTreeMap;

/// A fired timer: the user-supplied tag that tells the actor what the
/// timer was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// Free-form tag chosen by the actor when setting the timer.
    pub tag: u64,
}

/// A protocol participant driven by the simulator.
///
/// Implementations are sans-IO state machines: they react to messages and
/// timers, and interact with the world exclusively through the [`Context`].
/// `M` is the workspace-wide message type of the experiment being run.
pub trait Actor<M>: 'static {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called for every message delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: Timer) {
        let _ = (ctx, timer);
    }
}

/// Object-safe extension of [`Actor`] that supports downcasting, so the
/// harness can inspect actor state after a run.
pub(crate) trait ActorObj<M>: Actor<M> {
    fn as_any(&self) -> &dyn std::any::Any;
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<M, T: Actor<M> + 'static> ActorObj<M> for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Actions buffered during a handler invocation and executed by the
/// simulator once the handler returns (and its charged CPU time elapsed).
pub(crate) enum OutAction<M> {
    Send {
        to: NodeId,
        msg: M,
        /// CPU work charged before this send was issued: the message
        /// departs once the handler's execution reaches this point.
        at: SimTime,
    },
    SetTimer {
        delay: SimTime,
        tag: u64,
        /// The arm id of a [`Context::arm`]ed timer.
        armed: Option<u64>,
    },
}

/// A node's outbox rewrite ([`crate::Simulation::set_adversary`]).
pub(crate) type Adversary<M> = dyn FnMut(NodeId, M) -> Option<M>;

/// Handler-side view of the simulation.
///
/// A `Context` is passed to every [`Actor`] callback. A message departs
/// once the handler's execution reaches the CPU work charged *before* the
/// send — mirroring a real server that computes, writes to the network,
/// and computes some more (protocols exploit this to overlap WAN transfers
/// with later CPU work, e.g. the IRMC's §A.9 content/signing overlap).
/// Timers take effect when the whole handler completes.
pub struct Context<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) out: &'a mut Vec<OutAction<M>>,
    pub(crate) charged: &'a mut SimTime,
    /// The simulation's next arm id.
    pub(crate) next_arm_id: &'a mut u64,
    /// This node's pending tag-keyed timers ([`Context::arm`]) by tag,
    /// each with its arm id; the simulation frees a tag when its timer
    /// fires.
    pub(crate) armed: &'a mut BTreeMap<u64, u64>,
    pub(crate) obs: &'a mut Recorder,
    /// This node's adversary, if one is installed.
    pub(crate) adversary: Option<&'a mut Adversary<M>>,
}

impl<'a, M> Context<'a, M> {
    /// The node this handler runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current simulated time (start of this handler's execution).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends `msg` to `to`. The message departs when the handler's charged
    /// work completes; delivery adds serialization and propagation delay.
    ///
    /// With observability on, the departure is also a causal edge for each
    /// request id the message carries ([`WireSize::trace_reqs`]), labeled
    /// with its [`WireSize::trace_kind`]. Messages carrying no request
    /// payload record nothing.
    ///
    /// On a node with an adversary, the edge and the network see what it
    /// made of `msg`, and a message it dropped leaves no trace.
    pub fn send(&mut self, to: NodeId, msg: M)
    where
        M: WireSize,
    {
        let msg = match &mut self.adversary {
            None => msg,
            Some(adversary) => match adversary(to, msg) {
                Some(msg) => msg,
                None => return,
            },
        };
        if self.obs.is_enabled() {
            let (at, node, kind) = (self.vnow(), self.node, msg.trace_kind());
            let obs = &mut *self.obs;
            msg.trace_reqs(&mut |req| obs.edge(at, node, to, kind, req));
        }
        self.out.push(OutAction::Send { to, msg, at: *self.charged });
    }

    /// Charges `cost` of CPU time to this handler. The node stays busy (and
    /// outgoing messages wait) until all charged work is done.
    pub fn charge(&mut self, cost: SimTime) {
        *self.charged += cost;
    }

    /// Like [`Context::charge`], but also attributes the cost to
    /// `(component, op)` when observability is enabled, so flamegraphs
    /// can break node busy-time down by operation. Simulated time is
    /// identical either way.
    pub fn charge_op(&mut self, component: &'static str, op: &'static str, cost: SimTime) {
        *self.charged += cost;
        self.obs.cpu_add(self.node, component, op, cost);
    }

    /// The virtual instant the handler's execution has reached: its start
    /// time plus all CPU work charged so far. Span events use this so
    /// intra-handler milestones are ordered by the work preceding them.
    fn vnow(&self) -> SimTime {
        self.now + *self.charged
    }

    /// Runs `f` inside the trace span `(req, phase)`: the span opens at the
    /// handler's current virtual instant and closes once `f` has returned,
    /// after the CPU work `f` charged (no-op when observability is
    /// disabled).
    pub fn span<R>(&mut self, req: u64, phase: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let at = self.vnow();
        self.obs.span_enter(at, self.node, req, phase);
        let result = f(self);
        let at = self.vnow();
        self.obs.span_exit(at, self.node, req, phase);
        result
    }

    /// Opens the [`PHASE_REQUEST`] span of `req`, the one span that
    /// outlives a handler: the handler that sees the request complete
    /// closes it with [`Context::close_request`].
    pub fn open_request(&mut self, req: u64) {
        let at = self.vnow();
        self.obs.span_enter(at, self.node, req, PHASE_REQUEST);
    }

    /// Closes the span [`Context::open_request`] opened.
    pub fn close_request(&mut self, req: u64) {
        let at = self.vnow();
        self.obs.span_exit(at, self.node, req, PHASE_REQUEST);
    }

    /// Records an instant trace milestone for `(req, phase)`.
    pub fn span_instant(&mut self, req: u64, phase: &'static str) {
        let at = self.vnow();
        self.obs.span_instant(at, self.node, req, phase);
    }

    /// Records a causal edge: a message of `kind` carrying request `req`
    /// departs this node for `to` at the handler's current virtual
    /// instant (no-op when observability is disabled). [`Context::send`]
    /// records the edges a message names itself; this is for a message
    /// whose request id is known only to its sender.
    pub fn edge(&mut self, to: NodeId, kind: &'static str, req: u64) {
        let at = self.vnow();
        self.obs.edge(at, self.node, to, kind, req);
    }

    /// Feeds a channel window-movement mark to the health watchdog.
    pub fn health_mark(&mut self, component: &'static str, key: u32) {
        let at = self.vnow();
        self.obs.health_mark(at, self.node, component, key);
    }

    /// Feeds a channel's outstanding-work gauge to the health watchdog.
    pub fn health_pending(&mut self, component: &'static str, key: u32, pending: u64) {
        let at = self.vnow();
        self.obs.health_pending(at, self.node, component, key, pending);
    }

    /// Feeds a consensus view observation to the health watchdog.
    pub fn health_view(&mut self, view: u64) {
        let at = self.vnow();
        self.obs.health_view(at, self.node, view);
    }

    /// Whether observability recording is enabled for this run. Hot paths
    /// can use this to skip computing values that exist only for the
    /// recorder.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_enabled()
    }

    /// Sets a timer that fires `delay` after the end of this handler's
    /// execution, tagged with `tag`. It cannot be cancelled; a timer that
    /// may have to be is [`Context::arm`]ed instead.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        self.out.push(OutAction::SetTimer { delay, tag, armed: None });
    }

    /// Arms the node's timer `tag` to fire `delay` after this handler
    /// (with that `tag`), replacing the one pending under the tag, if
    /// any. A node has at most one pending timer per tag armed this way;
    /// the tag is free again once it fires.
    pub fn arm(&mut self, tag: u64, delay: SimTime) {
        self.disarm(tag);
        self.arm_if_idle(tag, delay);
    }

    /// Like [`Context::arm`], but leaves a timer already pending under
    /// `tag` as it is.
    pub fn arm_if_idle(&mut self, tag: u64, delay: SimTime) {
        if !self.armed.contains_key(&tag) {
            let id = *self.next_arm_id;
            *self.next_arm_id += 1;
            self.armed.insert(tag, id);
            self.out.push(OutAction::SetTimer { delay, tag, armed: Some(id) });
        }
    }

    /// Cancels the timer pending under `tag`, if any: freed from its tag,
    /// it never fires.
    pub fn disarm(&mut self, tag: u64) {
        self.armed.remove(&tag);
    }

    /// Deterministic random number generator (shared by the whole sim).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use spider_obs::{ObsConfig, SpanKind, PHASE_EXEC};

    /// Runs `f` as a handler of node 1 that starts at 1 ms, over the
    /// node's `armed` timers; returns what it emitted.
    fn handle<M>(
        obs: &mut Recorder,
        armed: &mut BTreeMap<u64, u64>,
        next_arm_id: &mut u64,
        f: impl FnOnce(&mut Context<'_, M>),
    ) -> Vec<OutAction<M>> {
        let (mut rng, mut out, mut charged) =
            (SmallRng::seed_from_u64(0), Vec::new(), SimTime::ZERO);
        f(&mut Context {
            node: NodeId(1),
            now: SimTime::from_millis(1),
            rng: &mut rng,
            out: &mut out,
            charged: &mut charged,
            next_arm_id,
            armed,
            obs,
            adversary: None,
        });
        out
    }

    /// Runs `f` on a context over `armed` and renders what it emitted.
    fn transcript(
        armed: &mut BTreeMap<u64, u64>,
        next_arm_id: &mut u64,
        f: impl FnOnce(&mut Context<'_, ()>),
    ) -> Vec<String> {
        handle(&mut Recorder::disabled(), armed, next_arm_id, f)
            .iter()
            .map(|a| match a {
                OutAction::Send { .. } => "send".to_owned(),
                OutAction::SetTimer { delay, tag, armed: Some(id) } => {
                    format!("set #{id} tag {tag} {delay}")
                }
                OutAction::SetTimer { delay, tag, armed: None } => format!("set tag {tag} {delay}"),
            })
            .collect()
    }

    /// A message carrying the request ids it lists.
    struct Batch(Vec<u64>);
    impl WireSize for Batch {
        fn wire_size(&self) -> usize {
            8
        }
        fn trace_kind(&self) -> &'static str {
            "batch"
        }
        fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
            self.0.iter().for_each(|&req| visit(req));
        }
    }

    /// Node 1 sends `batches` to nodes 2, 3, …, charging 5 µs before
    /// each; returns the recorded edges and the number of sends.
    fn send_all(mut obs: Recorder, batches: Vec<Batch>) -> (Vec<String>, usize) {
        let out = handle(&mut obs, &mut BTreeMap::new(), &mut 0, |ctx| {
            for (to, batch) in (2..).zip(batches) {
                ctx.charge(SimTime::from_micros(5));
                ctx.send(NodeId(to), batch);
            }
        });
        let edges = obs.report().edges;
        let edges = edges
            .iter()
            .map(|e| format!("{} n{}->n{} {} {}", e.at, e.src.0, e.dst.0, e.kind, e.req));
        (edges.collect(), out.len())
    }

    #[test]
    fn send_records_one_edge_per_request_id_at_the_handlers_virtual_instant() {
        let on = Recorder::enabled(ObsConfig::default());
        let (edges, sent) = send_all(on, vec![Batch(vec![7, 9]), Batch(vec![4])]);
        assert_eq!(
            edges,
            ["1.005ms n1->n2 batch 7", "1.005ms n1->n2 batch 9", "1.010ms n1->n3 batch 4"]
        );
        assert_eq!(sent, 2);
    }

    #[test]
    fn send_records_no_edge_for_a_payload_free_message_or_with_obs_off() {
        let on = Recorder::enabled(ObsConfig::default());
        assert_eq!(send_all(on, vec![Batch(vec![])]), (vec![], 1));
        assert_eq!(send_all(Recorder::disabled(), vec![Batch(vec![7, 9])]), (vec![], 1));
    }

    #[test]
    fn span_encloses_the_cpu_its_closure_charged_even_on_an_early_return() {
        let mut obs = Recorder::enabled(ObsConfig::default());
        let us = SimTime::from_micros;
        handle::<()>(&mut obs, &mut BTreeMap::new(), &mut 0, |ctx| {
            ctx.charge(us(2));
            let left_early = ctx.span(5, PHASE_EXEC, |ctx| {
                ctx.charge(us(10));
                if ctx.node_id() == NodeId(1) {
                    return true;
                }
                ctx.charge(us(100));
                false
            });
            assert!(left_early);
            ctx.charge(us(1));
        });
        let spans: Vec<_> =
            obs.report().spans.iter().map(|e| (e.at, e.req, e.phase, e.kind)).collect();
        let at = |t| SimTime::from_millis(1) + us(t);
        assert_eq!(
            spans,
            [(at(2), 5, PHASE_EXEC, SpanKind::Enter), (at(12), 5, PHASE_EXEC, SpanKind::Exit)]
        );
    }

    #[test]
    fn arm_replaces_and_arm_if_idle_keeps_a_pending_timer() {
        let (mut armed, mut next) = (BTreeMap::new(), 0);
        let ms = SimTime::from_millis;
        let first = transcript(&mut armed, &mut next, |ctx| {
            ctx.arm(7, ms(5));
            ctx.arm_if_idle(7, ms(9));
            ctx.arm_if_idle(8, ms(9));
        });
        assert_eq!(first, ["set #0 tag 7 5.000ms", "set #1 tag 8 9.000ms"]);
        // Pending across handlers: the next one replaces #0 (freed from
        // its tag, it never fires), keeps #1.
        let second = transcript(&mut armed, &mut next, |ctx| {
            ctx.arm(7, ms(6));
            ctx.arm_if_idle(8, ms(1));
            ctx.set_timer(ms(2), 7);
        });
        assert_eq!(second, ["set #2 tag 7 6.000ms", "set tag 7 2.000ms"]);
        assert_eq!(armed, BTreeMap::from([(7, 2), (8, 1)]));
    }

    #[test]
    fn disarm_cancels_a_pending_timer_and_is_silent_on_an_idle_tag() {
        let (mut armed, mut next) = (BTreeMap::new(), 0);
        let got = transcript(&mut armed, &mut next, |ctx| {
            ctx.disarm(3);
            ctx.arm(3, SimTime::from_millis(1));
            ctx.disarm(3);
            ctx.disarm(3);
        });
        assert_eq!(got, ["set #0 tag 3 1.000ms"]);
        assert!(armed.is_empty(), "#0 is freed from its tag, so it never fires");
    }
}
