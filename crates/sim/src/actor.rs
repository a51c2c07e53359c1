//! Actors and the handler-side API ([`Context`]).

use rand::rngs::SmallRng;
use spider_obs::Recorder;
use spider_types::{NodeId, SimTime};
use std::collections::BTreeMap;

/// Identifier of a pending timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A fired timer: its id plus the user-supplied tag that tells the actor
/// what the timer was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// Identifier returned by [`Context::set_timer`].
    pub id: TimerId,
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
        id: TimerId,
        delay: SimTime,
        tag: u64,
    },
    CancelTimer(TimerId),
}

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
    pub(crate) next_timer_id: &'a mut u64,
    /// This node's pending tag-keyed timers ([`Context::arm`]); the
    /// simulation frees a tag when its timer fires.
    pub(crate) armed: &'a mut BTreeMap<u64, TimerId>,
    pub(crate) obs: &'a mut Recorder,
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
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.out.push(OutAction::Send { to, msg, at: *self.charged });
    }

    /// Sends a clone of `msg` to every node in `to`.
    pub fn broadcast<I>(&mut self, to: I, msg: &M)
    where
        M: Clone,
        I: IntoIterator<Item = NodeId>,
    {
        for n in to {
            self.send(n, msg.clone());
        }
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

    /// Records a trace span enter for `(req, phase)` (no-op when
    /// observability is disabled).
    pub fn span_enter(&mut self, req: u64, phase: &'static str) {
        let at = self.vnow();
        self.obs.span_enter(at, self.node, req, phase);
    }

    /// Records a trace span exit for `(req, phase)`.
    pub fn span_exit(&mut self, req: u64, phase: &'static str) {
        let at = self.vnow();
        self.obs.span_exit(at, self.node, req, phase);
    }

    /// Records an instant trace milestone for `(req, phase)`.
    pub fn span_instant(&mut self, req: u64, phase: &'static str) {
        let at = self.vnow();
        self.obs.span_instant(at, self.node, req, phase);
    }

    /// Records a causal edge: a message of `kind` carrying request `req`
    /// departs this node for `to` at the handler's current virtual
    /// instant (no-op when observability is disabled). Call it next to
    /// the `send` whose departure it mirrors; for messages that know
    /// their own kind and payload, prefer [`Context::edge_for`].
    pub fn edge(&mut self, to: NodeId, kind: &'static str, req: u64) {
        let at = self.vnow();
        self.obs.edge(at, self.node, to, kind, req);
    }

    /// Records causal edges for a message about to be sent to `to`: one
    /// edge per request id the message carries (via
    /// [`spider_types::wire::WireSize::trace_reqs`]), labeled with the
    /// message's [`spider_types::wire::WireSize::trace_kind`]. Messages
    /// carrying no request payload record nothing.
    pub fn edge_for<T: spider_types::wire::WireSize>(&mut self, to: NodeId, msg: &T) {
        if !self.obs.is_enabled() {
            return;
        }
        let at = self.vnow();
        let kind = msg.trace_kind();
        let (node, obs) = (self.node, &mut *self.obs);
        msg.trace_reqs(&mut |req| obs.edge(at, node, to, kind, req));
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

    /// Adds `delta` to this node's counter `name` in the metrics registry.
    pub fn metric_inc(&mut self, name: &'static str, delta: u64) {
        self.obs.counter_add(self.node, name, delta);
    }

    /// Records `value` into this node's histogram `name`.
    pub fn metric_hist(&mut self, name: &'static str, value: u64) {
        self.obs.hist_record(self.node, name, value);
    }

    /// Whether observability recording is enabled for this run. Hot paths
    /// can use this to skip computing values that exist only for metrics.
    pub fn obs_enabled(&self) -> bool {
        self.obs.is_enabled()
    }

    /// Sets a timer that fires `delay` after the end of this handler's
    /// execution, tagged with `tag`.
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.out.push(OutAction::SetTimer { id, delay, tag });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown timer
    /// is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.out.push(OutAction::CancelTimer(id));
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
            let id = self.set_timer(delay, tag);
            self.armed.insert(tag, id);
        }
    }

    /// Cancels the timer pending under `tag`, if any.
    pub fn disarm(&mut self, tag: u64) {
        if let Some(id) = self.armed.remove(&tag) {
            self.cancel_timer(id);
        }
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

    /// Runs `f` on a context over `armed` and renders what it emitted.
    fn transcript(
        armed: &mut BTreeMap<u64, TimerId>,
        next_timer_id: &mut u64,
        f: impl FnOnce(&mut Context<'_, ()>),
    ) -> Vec<String> {
        let (mut rng, mut out) = (SmallRng::seed_from_u64(0), Vec::new());
        let (mut charged, mut obs) = (SimTime::ZERO, Recorder::disabled());
        f(&mut Context {
            node: NodeId(0),
            now: SimTime::ZERO,
            rng: &mut rng,
            out: &mut out,
            charged: &mut charged,
            next_timer_id,
            armed,
            obs: &mut obs,
        });
        out.iter()
            .map(|a| match a {
                OutAction::Send { .. } => "send".to_owned(),
                OutAction::SetTimer { id, delay, tag } => {
                    format!("set #{} tag {tag} {delay}", id.0)
                }
                OutAction::CancelTimer(id) => format!("cancel #{}", id.0),
            })
            .collect()
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
        // Pending across handlers: the next one replaces #0, keeps #1.
        let second = transcript(&mut armed, &mut next, |ctx| {
            ctx.arm(7, ms(6));
            ctx.arm_if_idle(8, ms(1));
        });
        assert_eq!(second, ["cancel #0", "set #2 tag 7 6.000ms"]);
        assert_eq!(armed, BTreeMap::from([(7, TimerId(2)), (8, TimerId(1))]));
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
        assert_eq!(got, ["set #0 tag 3 1.000ms", "cancel #0"]);
        assert!(armed.is_empty());
    }
}
