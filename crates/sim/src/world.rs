//! The simulation world: nodes, event loop, delivery semantics.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use spider_obs::{ObsConfig, Recorder};
use spider_types::{NodeId, SimTime, WireSize, ZoneId};
use std::collections::{BTreeMap, VecDeque};

use crate::actor::{Actor, ActorObj, Adversary, Context, OutAction, Timer};
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultEvent, FaultPlan};
use crate::metrics::{LinkClass, SimStats};
use crate::net::{NetworkControl, Topology};

struct NodeSlot<M> {
    actor: Box<dyn ActorObj<M>>,
    zone: ZoneId,
    /// The node's CPU is occupied until this instant.
    busy_until: SimTime,
    /// The node's NIC egress is occupied until this instant.
    egress_free_at: SimTime,
    /// Pending tag-keyed timers ([`Context::arm`]) by tag, each with its
    /// arm id; a tag is freed as its timer fires.
    armed: BTreeMap<u64, u64>,
    /// What rewrites or drops the node's outgoing messages, if anything
    /// ([`Simulation::set_adversary`]).
    adversary: Option<Box<Adversary<M>>>,
}

/// A deterministic discrete-event simulation over message type `M`.
///
/// See the [crate-level documentation](crate) for the model and an example.
pub struct Simulation<M> {
    topology: Topology,
    nodes: Vec<NodeSlot<M>>,
    queue: EventQueue<M>,
    now: SimTime,
    rng: SmallRng,
    stats: SimStats,
    net_control: NetworkControl,
    next_arm_id: u64,
    out_buf: Vec<OutAction<M>>,
    /// Installed fault events in application order (front = next due).
    fault_timeline: VecDeque<(SimTime, FaultEvent)>,
    /// Fault windows installed so far: the next plan's are numbered on.
    fault_windows: u32,
    /// Observability recorder; disabled (every record call a no-op)
    /// unless [`Simulation::enable_obs`] is called.
    obs: Recorder,
}

impl<M: Clone + WireSize + 'static> Simulation<M> {
    /// Creates an empty simulation over `topology`, seeded with `seed`.
    pub fn new(topology: Topology, seed: u64) -> Self {
        Simulation {
            topology,
            nodes: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SmallRng::seed_from_u64(seed),
            stats: SimStats::default(),
            net_control: NetworkControl::default(),
            next_arm_id: 0,
            out_buf: Vec::new(),
            fault_timeline: VecDeque::new(),
            fault_windows: 0,
            obs: Recorder::disabled(),
        }
    }

    /// Turns on observability recording (trace spans and causal edges,
    /// every one kept, CPU attribution, the health watchdog) for the rest
    /// of the run. Nodes added before and after this call are both
    /// covered.
    pub fn enable_obs(&mut self) {
        self.obs = Recorder::enabled(ObsConfig::default());
        for i in 0..self.nodes.len() {
            self.obs.ensure_node(NodeId(i as u32));
        }
    }

    /// The observability recorder (disabled by default).
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Adds a node in `zone` running `actor`; returns its id. The actor's
    /// [`Actor::on_start`] runs immediately (at the current time).
    pub fn add_node<A: Actor<M>>(&mut self, zone: ZoneId, actor: A) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.stats.ensure_node(id);
        self.obs.ensure_node(id);
        self.queue.ensure_node(id);
        self.net_control.add_node(zone.region());
        self.nodes.push(NodeSlot {
            actor: Box::new(actor),
            zone,
            busy_until: self.now,
            egress_free_at: self.now,
            armed: BTreeMap::new(),
            adversary: None,
        });
        self.run_handler(id, |actor, ctx| actor.on_start(ctx));
        id
    }

    /// The topology this simulation runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Zone of a node.
    pub fn zone_of(&self, node: NodeId) -> ZoneId {
        self.nodes[node.0 as usize].zone
    }

    /// Measurements collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Installs a scripted [`FaultPlan`]: its events apply at their
    /// scheduled times as the simulation advances. Multiple plans merge;
    /// same-instant events keep install order. Region names are validated
    /// eagerly.
    ///
    /// Events at or before [`Simulation::now`] apply at once. Messages
    /// already in flight across a new cut still arrive — drops are decided
    /// at send time.
    ///
    /// # Panics
    ///
    /// Panics if an event names a region the topology doesn't know.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let (events, next_window) = plan.into_events(self.fault_windows);
        self.fault_windows = next_window;
        for (_, event) in &events {
            NetworkControl::validate(event, &self.topology);
        }
        let mut merged: Vec<(SimTime, FaultEvent)> =
            self.fault_timeline.drain(..).chain(events).collect();
        merged.sort_by_key(|(at, _)| *at);
        self.fault_timeline = merged.into();
        self.apply_due_faults(self.now);
    }

    /// Number of fault events still pending application.
    pub fn pending_faults(&self) -> usize {
        self.fault_timeline.len()
    }

    /// Applies every installed fault event due at or before `upto`.
    fn apply_due_faults(&mut self, upto: SimTime) {
        while self.fault_timeline.front().is_some_and(|(at, _)| *at <= upto) {
            let (_, event) = self.fault_timeline.pop_front().expect("front checked");
            self.net_control.apply(event, &self.topology);
        }
    }

    /// Makes `node` Byzantine: from now on every message it sends passes
    /// through `adversary` with its destination, in [`Context::send`], and
    /// departs as what that returns (rewritten, per destination if it
    /// likes), or not at all on `None`. A second call replaces the first.
    pub fn set_adversary(
        &mut self,
        node: NodeId,
        adversary: impl FnMut(NodeId, M) -> Option<M> + 'static,
    ) {
        self.nodes[node.0 as usize].adversary = Some(Box::new(adversary));
    }

    /// Injects a message `from -> to` that arrives with normal network
    /// delays starting at time `at` (which must not be in the past).
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulated time.
    pub fn post(&mut self, at: SimTime, from: NodeId, to: NodeId, msg: M) {
        assert!(at >= self.now, "cannot post into the past");
        self.send(at, from, to, msg);
    }

    /// Access the concrete actor behind a node for post-run inspection.
    ///
    /// # Panics
    ///
    /// Panics if the node's actor is not a `T`.
    pub fn actor<T: 'static>(&self, node: NodeId) -> &T {
        self.nodes[node.0 as usize].actor.as_any().downcast_ref::<T>().expect("actor type mismatch")
    }

    /// Mutable access to the concrete actor behind a node.
    ///
    /// # Panics
    ///
    /// Panics if the node's actor is not a `T`.
    pub fn actor_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        self.nodes[node.0 as usize]
            .actor
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("actor type mismatch")
    }

    /// Runs until the queue is empty or simulated time reaches `deadline`.
    /// Returns the number of events processed.
    ///
    /// The same as [`Simulation::run_until`]: either way the clock ends
    /// at `deadline` (or at [`Simulation::now`], if later). The name says
    /// that the caller expects the run to settle before the deadline.
    pub fn run_until_quiescent(&mut self, deadline: SimTime) -> u64 {
        self.run_until(deadline)
    }

    /// Runs until simulated time reaches `deadline` (events after the
    /// deadline stay queued). Returns the number of events processed: every
    /// event that ran or was dropped at a crashed node, and every time the
    /// busy-server model turned an event away from a busy node, as
    /// [`SimStats::total_events`] counts them.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut n = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            n += self.next_events();
        }
        self.now = self.now.max(deadline);
        self.apply_due_faults(self.now);
        n
    }

    /// Processes the earliest event. Returns `false` if the queue was
    /// empty.
    ///
    /// One step counts one event or more in [`SimStats::total_events`]: an
    /// event that meets its node busy may take the node's whole line of
    /// waiting events with it, each of them one turn-away of the
    /// busy-server model (see the [crate-level documentation](crate)).
    pub fn step(&mut self) -> bool {
        self.next_events() > 0
    }

    /// Processes the earliest event and returns how many events that
    /// counted (0 on an empty queue).
    fn next_events(&mut self) -> u64 {
        let Some((at, node)) = self.queue.peek() else {
            return 0;
        };
        // Scripted faults due before the next event take effect first, so
        // the event's send decisions see the post-fault network.
        self.apply_due_faults(at.max(self.now));
        self.now = self.now.max(at);

        let events = if self.net_control.is_crashed(node) {
            // Dead nodes consume nothing, nor does the line waiting on one.
            self.queue.drop_top()
        } else {
            // Busy-server model: if the node's CPU is still busy, the event
            // waits for when it frees up, arrival order preserved; most
            // events of a loaded run meet a busy node first.
            let busy_until = self.nodes[node.0 as usize].busy_until;
            if busy_until > at {
                self.queue.turn_away(busy_until)
            } else {
                self.run_top(node);
                1 + self.queue.after_run(self.nodes[node.0 as usize].busy_until)
            }
        };
        self.stats.total_events += events;
        events
    }

    /// Pops the earliest event, at `node`, and runs its handler.
    fn run_top(&mut self, node: NodeId) {
        match self.queue.pop().expect("peeked") {
            EventKind::Deliver { from, msg } => {
                self.run_handler(node, |actor, ctx| actor.on_message(ctx, from, msg));
            }
            EventKind::Fire { timer, armed } => {
                if let Some(id) = armed {
                    // An armed timer fires only while its tag still holds it.
                    let pending = &mut self.nodes[node.0 as usize].armed;
                    if pending.get(&timer.tag) != Some(&id) {
                        return;
                    }
                    pending.remove(&timer.tag);
                }
                self.run_handler(node, |actor, ctx| actor.on_timer(ctx, timer));
            }
        }
    }

    fn link_class(&self, from: NodeId, to: NodeId) -> LinkClass {
        if self.nodes[from.0 as usize].zone.region() == self.nodes[to.0 as usize].zone.region() {
            LinkClass::Lan
        } else {
            LinkClass::Wan
        }
    }

    /// Sends `msg` from `from` to `to`, departing at `departure`. A message
    /// the network loses is counted and costs nothing more: it occupies no
    /// NIC time and draws no latency. Any other serializes on the sender's
    /// egress after what it already queued, then crosses the link.
    fn send(&mut self, departure: SimTime, from: NodeId, to: NodeId, msg: M) {
        if self.net_control.should_drop(from, to, &mut self.rng) {
            self.stats.dropped_messages += 1;
            return;
        }
        let bytes = msg.wire_size() as u64;
        let ser = self.topology.serialization_delay(bytes as usize);
        let slot = &mut self.nodes[from.0 as usize];
        let egress_start = slot.egress_free_at.max(departure);
        slot.egress_free_at = egress_start + ser;
        let egress_end = slot.egress_free_at;
        let from_zone = self.nodes[from.0 as usize].zone;
        let to_zone = self.nodes[to.0 as usize].zone;
        let prop = self.topology.sample_latency(from_zone, to_zone, &mut self.rng);
        let extra = self.net_control.extra_delay(from, to);
        self.stats.record_send(from, self.link_class(from, to), bytes);
        self.queue.push(egress_end + prop + extra, to, EventKind::Deliver { from, msg });
    }

    /// Runs one actor handler with a fresh context, then applies buffered
    /// actions with the busy-server departure rule.
    fn run_handler<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn ActorObj<M>, &mut Context<'_, M>),
    {
        let start = self.now.max(self.nodes[node.0 as usize].busy_until);
        let mut charged = SimTime::ZERO;
        let mut out = std::mem::take(&mut self.out_buf);
        out.clear();

        {
            let slot = &mut self.nodes[node.0 as usize];
            let mut ctx = Context {
                node,
                now: start,
                rng: &mut self.rng,
                out: &mut out,
                charged: &mut charged,
                next_arm_id: &mut self.next_arm_id,
                armed: &mut slot.armed,
                obs: &mut self.obs,
                adversary: slot.adversary.as_deref_mut(),
            };
            f(slot.actor.as_mut(), &mut ctx);
        }

        let end = start + charged;
        self.nodes[node.0 as usize].busy_until = end;
        self.stats.record_busy(node, charged);

        for action in out.drain(..) {
            match action {
                OutAction::Send { to, msg, at } => self.send(start + at, node, to, msg),
                OutAction::SetTimer { delay, tag, armed } => {
                    self.queue.push(
                        end + delay,
                        node,
                        EventKind::Fire { timer: Timer { tag }, armed },
                    );
                }
            }
        }
        self.out_buf = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Msg(u64, usize);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            self.1
        }
    }

    type Arrivals = Vec<(SimTime, u64)>;

    /// Records arrival times of everything it receives.
    #[derive(Default)]
    struct Recorder {
        arrivals: Arrivals,
    }
    impl Actor<Msg> for Recorder {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            self.arrivals.push((ctx.now(), msg.0));
        }
    }

    /// Charges fixed CPU per message and echoes.
    struct Worker {
        cost: SimTime,
    }
    impl Actor<Msg> for Worker {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            ctx.charge(self.cost);
            ctx.send(from, msg);
        }
    }

    fn two_region_topo() -> Topology {
        Topology::builder()
            .region("a", 2)
            .region("b", 2)
            .symmetric_latency("a", "b", SimTime::from_millis(40))
            .jitter(0.0)
            .inter_zone_latency(SimTime::from_micros(500))
            .intra_zone_latency(SimTime::from_micros(100))
            .build()
    }

    #[test]
    fn message_arrives_after_propagation_delay() {
        let topo = two_region_topo();
        let mut sim = Simulation::new(topo, 1);
        let a = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
        let b = sim.add_node(sim.topology().zone("b", 0), Recorder::default());
        sim.post(SimTime::ZERO, a, b, Msg(7, 100));
        sim.run_until_quiescent(SimTime::from_secs(1));
        let rec = sim.actor::<Recorder>(b);
        assert_eq!(rec.arrivals.len(), 1);
        let (t, v) = rec.arrivals[0];
        assert_eq!(v, 7);
        // 40ms propagation + 100B serialization at 5Gbit/s (160ns).
        assert!(t >= SimTime::from_millis(40));
        assert!(t < SimTime::from_millis(41));
    }

    #[test]
    fn busy_server_serializes_processing() {
        let topo = two_region_topo();
        let mut sim = Simulation::new(topo, 1);
        let sink = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
        let worker =
            sim.add_node(sim.topology().zone("a", 0), Worker { cost: SimTime::from_millis(10) });
        // Two messages arrive at essentially the same time; the second reply
        // must depart 10ms of CPU after the first.
        sim.post(SimTime::ZERO, sink, worker, Msg(1, 10));
        sim.post(SimTime::ZERO, sink, worker, Msg(2, 10));
        sim.run_until_quiescent(SimTime::from_secs(1));
        let rec = sim.actor::<Recorder>(sink);
        assert_eq!(rec.arrivals.len(), 2);
        let gap = rec.arrivals[1].0 - rec.arrivals[0].0;
        assert!(
            gap >= SimTime::from_millis(10),
            "second reply should lag a full CPU slot, got {gap}"
        );
        // CPU accounting saw 20ms of work.
        assert_eq!(sim.stats().cpu(worker).busy, SimTime::from_millis(20));
    }

    #[test]
    fn lan_wan_byte_accounting() {
        let topo = two_region_topo();
        let mut sim = Simulation::new(topo, 1);
        let a0 = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
        let a1 = sim.add_node(sim.topology().zone("a", 1), Recorder::default());
        let b0 = sim.add_node(sim.topology().zone("b", 0), Recorder::default());
        sim.post(SimTime::ZERO, a0, a1, Msg(1, 111));
        sim.post(SimTime::ZERO, a0, b0, Msg(2, 222));
        sim.run_until_quiescent(SimTime::from_secs(1));
        let n = sim.stats().net(a0);
        assert_eq!(n.lan_sent, 111);
        assert_eq!(n.wan_sent, 222);
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let topo = two_region_topo();
        let mut sim = Simulation::new(topo, 1);
        let a = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
        let b = sim.add_node(sim.topology().zone("b", 0), Recorder::default());
        sim.install_fault_plan(FaultPlan::new().crash_replica(b, SimTime::ZERO));
        sim.post(SimTime::ZERO, a, b, Msg(1, 10));
        sim.run_until_quiescent(SimTime::from_secs(1));
        assert!(sim.actor::<Recorder>(b).arrivals.is_empty());
        assert_eq!(sim.stats().dropped_messages, 1);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Actor<Msg> for TimerUser {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.arm(5, SimTime::from_millis(5));
                ctx.arm(1, SimTime::from_millis(1));
                ctx.arm(3, SimTime::from_millis(3));
                ctx.disarm(3);
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Msg>, timer: Timer) {
                self.fired.push(timer.tag);
            }
        }
        let topo = two_region_topo();
        let mut sim = Simulation::new(topo, 1);
        let n = sim.add_node(sim.topology().zone("a", 0), TimerUser { fired: vec![] });
        sim.run_until_quiescent(SimTime::from_secs(1));
        assert_eq!(sim.actor::<TimerUser>(n).fired, vec![1, 5]);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<(SimTime, u64)> {
            let topo = Topology::builder()
                .region("a", 2)
                .region("b", 2)
                .symmetric_latency("a", "b", SimTime::from_millis(20))
                .jitter(0.3)
                .build();
            let mut sim = Simulation::new(topo, seed);
            let rec = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
            let w = sim
                .add_node(sim.topology().zone("b", 0), Worker { cost: SimTime::from_micros(300) });
            for i in 0..50 {
                sim.post(SimTime::from_millis(i), rec, w, Msg(i, 64));
            }
            sim.run_until_quiescent(SimTime::from_secs(5));
            sim.actor::<Recorder>(rec).arrivals.clone()
        }
        assert_eq!(run(42), run(42), "same seed must reproduce exactly");
        assert_ne!(run(42), run(43), "different seeds should differ (jitter)");
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let topo = two_region_topo();
        let mut sim: Simulation<Msg> = Simulation::new(topo, 1);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    /// Sends one message per tick to a peer and counts echoes.
    struct Ticker {
        peer: NodeId,
        period: SimTime,
        sent: u64,
        echoed: Vec<SimTime>,
    }
    impl Actor<Msg> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, _msg: Msg) {
            self.echoed.push(ctx.now());
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _timer: Timer) {
            self.sent += 1;
            ctx.send(self.peer, Msg(self.sent, 16));
            ctx.set_timer(self.period, 0);
        }
    }

    /// Echoes everything straight back.
    struct EchoBack;
    impl Actor<Msg> for EchoBack {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            ctx.send(from, msg);
        }
    }

    /// Sends `Msg(1..=3)` to each peer when poked.
    struct Fanout(Vec<NodeId>);
    impl Actor<Msg> for Fanout {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Msg) {
            for k in 1..=3 {
                for &to in &self.0 {
                    ctx.send(to, Msg(k, 16));
                }
            }
        }
    }

    /// A fan-out from `a0` to `a1` and `b0`, with `adversary` installed on
    /// `a0`: what each peer received, and `a0`'s sent bytes.
    fn fan_out(adversary: Option<fn(NodeId, Msg) -> Option<Msg>>) -> (Arrivals, Arrivals, u64) {
        let mut sim = Simulation::new(two_region_topo(), 1);
        let (za, zb) = (sim.topology().zone("a", 0), sim.topology().zone("b", 0));
        let a1 = sim.add_node(za, Recorder::default());
        let b0 = sim.add_node(zb, Recorder::default());
        let a0 = sim.add_node(za, Fanout(vec![a1, b0]));
        if let Some(adversary) = adversary {
            sim.set_adversary(a0, adversary);
        }
        sim.post(SimTime::ZERO, a1, a0, Msg(0, 8));
        sim.run_until_quiescent(SimTime::from_secs(1));
        let sent = sim.stats().net(a0);
        let got = |n| sim.actor::<Recorder>(n).arrivals.clone();
        (got(a1), got(b0), sent.lan_sent + sent.wan_sent)
    }

    #[test]
    fn an_adversary_drops_and_rewrites_per_destination_and_none_is_transparent() {
        let honest = fan_out(None);
        assert_eq!(honest.0.iter().map(|a| a.1).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(fan_out(Some(|_, m| Some(m))), honest, "a pass-through changes nothing");
        // Drops message 2 towards node 0 (`a1`), tells node 1 (`b0`) other
        // numbers than node 0 and grows one of them on the wire.
        let (a1, b0, sent) = fan_out(Some(|to, Msg(k, size)| match (to.0, k) {
            (0, 2) => None,
            (0, _) => Some(Msg(k, size)),
            (_, 3) => Some(Msg(30, 1000)),
            _ => Some(Msg(k + 10, size)),
        }));
        assert_eq!(a1.iter().map(|a| a.1).collect::<Vec<_>>(), [1, 3]);
        assert_eq!(b0.iter().map(|a| a.1).collect::<Vec<_>>(), [11, 12, 30]);
        assert_eq!(sent, honest.2 - 16 + (1000 - 16), "the network carries what it returned");
        assert_eq!(a1[0], honest.0[0], "untouched messages keep their timing");
    }

    #[test]
    fn fault_plan_outage_window_suppresses_and_restores_traffic() {
        let topo = two_region_topo();
        let mut sim = Simulation::new(topo, 1);
        let echo = sim.add_node(sim.topology().zone("b", 0), EchoBack);
        let ticker = sim.add_node(
            sim.topology().zone("a", 0),
            Ticker { peer: echo, period: SimTime::from_millis(100), sent: 0, echoed: vec![] },
        );
        sim.install_fault_plan(FaultPlan::new().region_outage(
            "b",
            SimTime::from_secs(2),
            SimTime::from_secs(4),
        ));
        sim.run_until(SimTime::from_secs(6));
        let echoed = &sim.actor::<Ticker>(ticker).echoed;
        let during = |t: &&SimTime| {
            **t > SimTime::from_secs(2) + SimTime::from_millis(200) && **t < SimTime::from_secs(4)
        };
        assert_eq!(echoed.iter().filter(during).count(), 0, "no echoes during the outage");
        let before = echoed.iter().filter(|t| **t < SimTime::from_secs(2)).count();
        let after = echoed.iter().filter(|t| **t > SimTime::from_secs(4)).count();
        assert!(before > 10, "traffic before the outage, got {before}");
        assert!(after > 10, "traffic resumes after restore, got {after}");
        assert_eq!(sim.pending_faults(), 0, "both events applied");
    }

    #[test]
    fn fault_plan_heal_clears_partition_but_not_crash() {
        let topo = two_region_topo();
        let mut sim = Simulation::new(topo, 1);
        let echo = sim.add_node(sim.topology().zone("b", 0), EchoBack);
        let ticker = sim.add_node(
            sim.topology().zone("a", 0),
            Ticker { peer: echo, period: SimTime::from_millis(100), sent: 0, echoed: vec![] },
        );
        let dead = sim.add_node(sim.topology().zone("b", 1), EchoBack);
        sim.install_fault_plan(
            FaultPlan::new()
                .crash_replica(dead, SimTime::from_secs(1))
                .wan_partition(&["a"], &["b"], SimTime::from_secs(1), SimTime::from_secs(60))
                .heal_at(SimTime::from_secs(3)),
        );
        sim.run_until(SimTime::from_secs(5));
        assert!(!sim.net_control.is_crashed(ticker));
        assert!(sim.net_control.is_crashed(dead), "heal leaves crashes in place");
        let echoed = &sim.actor::<Ticker>(ticker).echoed;
        assert!(
            echoed.iter().any(|t| *t > SimTime::from_secs(3)),
            "traffic resumes after the heal event"
        );
    }

    #[test]
    fn fault_plan_runs_are_deterministic_and_diverge_from_unfaulted() {
        fn run(seed: u64, faulted: bool) -> Vec<(SimTime, u64)> {
            let topo = two_region_topo();
            let mut sim = Simulation::new(topo, seed);
            let rec = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
            let w = sim
                .add_node(sim.topology().zone("b", 0), Worker { cost: SimTime::from_micros(200) });
            if faulted {
                // Covers the instants the worker's echoes depart (the
                // requests take 40ms of propagation to reach it).
                sim.install_fault_plan(FaultPlan::new().region_outage(
                    "b",
                    SimTime::from_millis(45),
                    SimTime::from_millis(70),
                ));
            }
            for i in 0..50 {
                sim.post(SimTime::from_millis(i), rec, w, Msg(i, 64));
            }
            sim.run_until_quiescent(SimTime::from_secs(5));
            sim.actor::<Recorder>(rec).arrivals.clone()
        }
        assert_eq!(run(7, true), run(7, true), "same seed, same faulted trace");
        assert_ne!(run(7, true), run(7, false), "the outage must be observable");
    }

    #[test]
    #[should_panic(expected = "unknown region")]
    fn fault_plan_rejects_unknown_regions_at_install() {
        let topo = two_region_topo();
        let mut sim: Simulation<Msg> = Simulation::new(topo, 1);
        sim.install_fault_plan(FaultPlan::new().region_outage(
            "atlantis",
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        ));
    }

    #[test]
    fn egress_bandwidth_backlogs_large_messages() {
        let topo = Topology::builder()
            .region("a", 1)
            .region("b", 1)
            .symmetric_latency("a", "b", SimTime::from_millis(10))
            .jitter(0.0)
            .bandwidth_bits_per_sec(8_000_000) // 1 MB/s
            .build();
        let mut sim = Simulation::new(topo, 1);
        let a = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
        let b = sim.add_node(sim.topology().zone("b", 0), Recorder::default());
        // Two 500KB messages: the second serializes after the first.
        sim.post(SimTime::ZERO, a, b, Msg(1, 500_000));
        sim.post(SimTime::ZERO, a, b, Msg(2, 500_000));
        sim.run_until_quiescent(SimTime::from_secs(5));
        let rec = sim.actor::<Recorder>(b);
        assert_eq!(rec.arrivals.len(), 2);
        let (t1, t2) = (rec.arrivals[0].0, rec.arrivals[1].0);
        assert!(t1 >= SimTime::from_millis(510), "0.5s ser + 10ms prop");
        assert!(t2 - t1 >= SimTime::from_millis(499), "NIC is serialized");
    }

    #[test]
    fn a_posted_message_lost_to_a_cut_leaves_the_senders_nic_free() {
        let topo = Topology::builder()
            .region("a", 1)
            .region("b", 2)
            .symmetric_latency("a", "b", SimTime::from_millis(10))
            .jitter(0.0)
            .bandwidth_bits_per_sec(8_000_000) // 1 MB/s
            .build();
        let mut sim = Simulation::new(topo, 1);
        let a = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
        let b = sim.add_node(sim.topology().zone("b", 0), Recorder::default());
        let cut = sim.add_node(sim.topology().zone("b", 1), Recorder::default());
        sim.install_fault_plan(FaultPlan::new().isolate_replica(
            cut,
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        // 500 KB would hold the NIC for 0.5 s, but the cut loses it first.
        sim.post(SimTime::ZERO, a, cut, Msg(1, 500_000));
        sim.post(SimTime::ZERO, a, b, Msg(2, 8));
        sim.run_until_quiescent(SimTime::from_secs(2));
        assert!(sim.actor::<Recorder>(cut).arrivals.is_empty());
        assert_eq!(sim.stats().dropped_messages, 1);
        let at_b = &sim.actor::<Recorder>(b).arrivals;
        assert_eq!(at_b.len(), 1);
        assert!(at_b[0].0 < SimTime::from_millis(11), "departs at once: 10 ms away, 8 bytes");
    }

    #[test]
    fn a_fired_timer_frees_its_tag_and_a_cancelled_one_never_fires() {
        /// Arms tag 7 once; on each fire, `arm_if_idle`s it again twice.
        #[derive(Default)]
        struct Rearm {
            log: Vec<String>,
        }
        impl Actor<Msg> for Rearm {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.arm(7, SimTime::from_millis(5));
                ctx.arm(7, SimTime::from_millis(1)); // replaces #0
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, _: Timer) {
                let before = ctx.out.len();
                ctx.arm_if_idle(7, SimTime::from_millis(1)); // free: sets
                ctx.arm_if_idle(7, SimTime::from_millis(1)); // pending: keeps
                self.log.push(format!("{} set {}", ctx.now(), ctx.out.len() - before));
            }
        }
        let mut sim = Simulation::new(two_region_topo(), 1);
        let n = sim.add_node(sim.topology().zone("a", 0), Rearm::default());
        // The replaced 5 ms timer is still queued when the re-armed chain
        // fires at 5 ms; it must not fire a second time then.
        sim.run_until(SimTime::from_micros(5_500));
        let fired =
            ["1.000ms", "2.000ms", "3.000ms", "4.000ms", "5.000ms"].map(|t| format!("{t} set 1"));
        assert_eq!(sim.actor::<Rearm>(n).log, fired);
    }

    #[test]
    fn overlapping_isolation_windows_compose() {
        let s = SimTime::from_secs;
        let mut sim = Simulation::new(two_region_topo(), 1);
        let echo = sim.add_node(sim.topology().zone("b", 0), EchoBack);
        let ticker = sim.add_node(
            sim.topology().zone("a", 0),
            Ticker { peer: echo, period: SimTime::from_millis(100), sent: 0, echoed: vec![] },
        );
        // The inner window's close must not end the outer one.
        sim.install_fault_plan(FaultPlan::new().isolate_replica(echo, s(1), s(4)).isolate_replica(
            echo,
            s(2),
            s(3),
        ));
        sim.run_until(s(6));
        let echoed = &sim.actor::<Ticker>(ticker).echoed;
        let between = |from, until| echoed.iter().filter(|t| **t > from && **t < until).count();
        let late = SimTime::from_millis(200); // an echo sent before a cut still lands
        assert_eq!(between(s(1) + late, s(4)), 0, "isolated until the outer window closes");
        assert!(between(s(4) + late, s(6)) > 10, "traffic resumes after it");
    }

    impl<M: Clone + WireSize + 'static> Simulation<M> {
        /// The busy-server step without lines, the reference the line
        /// stepper must match: an event that meets its node busy is re-keyed
        /// in the heap on its own, each time. Returns whether it turned the
        /// event away, `None` on an empty queue.
        fn bouncing_step(&mut self) -> Option<bool> {
            let (at, node) = self.queue.peek()?;
            self.apply_due_faults(at.max(self.now));
            self.now = self.now.max(at);
            self.stats.total_events += 1;
            if self.net_control.is_crashed(node) {
                self.queue.pop();
                return Some(false);
            }
            let busy_until = self.nodes[node.0 as usize].busy_until;
            if busy_until > at {
                self.queue.defer_top(busy_until);
                return Some(true);
            }
            self.run_top(node);
            Some(false)
        }

        /// [`Simulation::run_until`] over [`Self::bouncing_step`]; returns
        /// how many turn-aways it made.
        fn run_bouncing(&mut self, deadline: SimTime) -> u64 {
            let mut turned_away = 0;
            while self.queue.peek_time().is_some_and(|t| t <= deadline) {
                turned_away += u64::from(self.bouncing_step() == Some(true));
            }
            self.now = self.now.max(deadline);
            self.apply_due_faults(self.now);
            turned_away
        }
    }

    type HandlerLog = Vec<(SimTime, u64, u64)>;

    /// Logs every handler it runs (when, what, its random draw) and keeps
    /// a tie-heavy load going: a handler charges 0–2 µs, and a message
    /// with hops left sends a zero-byte message on and now and then sets a
    /// zero-delay timer, or arms one under a tag a later arm replaces.
    struct Tangle {
        peers: Vec<NodeId>,
        log: HandlerLog,
    }
    impl Tangle {
        fn handle(&mut self, ctx: &mut Context<'_, Msg>, what: u64) -> u64 {
            use rand::RngCore;
            let draw = ctx.rng().next_u64();
            ctx.charge(SimTime::from_micros(draw % 3));
            self.log.push((ctx.now(), what, draw));
            draw
        }
    }
    impl Actor<Msg> for Tangle {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, msg: Msg) {
            let draw = self.handle(ctx, msg.0);
            if msg.0 > 0 {
                let to = self.peers[(draw >> 8) as usize % self.peers.len()];
                ctx.send(to, Msg(msg.0 - 1, 0));
                match (draw >> 16) % 4 {
                    0 => ctx.set_timer(SimTime::ZERO, msg.0),
                    1 => ctx.arm((draw >> 18) % 2, SimTime::ZERO),
                    _ => {}
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: Timer) {
            self.handle(ctx, 1_000 + timer.tag);
        }
    }

    /// One [`Tangle`] run over four nodes 1 µs apart, without jitter, with
    /// a crash on every third seed: each node's handler log, the event
    /// count, and (from the bouncing stepper only) its turn-aways.
    fn tangle(seed: u64, bouncing: bool) -> (Vec<HandlerLog>, u64, u64) {
        let topo = Topology::builder()
            .region("a", 4)
            .jitter(0.0)
            .inter_zone_latency(SimTime::from_micros(1))
            .intra_zone_latency(SimTime::from_micros(1))
            .build();
        let mut sim = Simulation::new(topo, seed);
        let peers: Vec<NodeId> = (0..4).map(NodeId).collect();
        for zone in 0..4 {
            let zone = sim.topology().zone("a", zone);
            sim.add_node(zone, Tangle { peers: peers.clone(), log: Vec::new() });
        }
        for i in 0..12u32 {
            let at = SimTime::from_micros(u64::from(i % 3));
            sim.post(at, NodeId(i % 4), NodeId(i * 3 % 4), Msg(24, 0));
        }
        if seed.is_multiple_of(3) {
            let at = SimTime::from_micros(10 + seed % 30);
            sim.install_fault_plan(FaultPlan::new().crash_replica(NodeId(seed as u32 / 3 % 4), at));
        }
        let deadline = SimTime::from_secs(1);
        let (counted, turned_away) = if bouncing {
            (None, sim.run_bouncing(deadline))
        } else {
            (Some(sim.run_until(deadline)), 0)
        };
        let total = sim.stats().total_events;
        assert!(counted.is_none_or(|n| n == total), "run_until counts what total_events counts");
        let logs = peers.iter().map(|&n| sim.actor::<Tangle>(n).log.clone()).collect();
        (logs, total, turned_away)
    }

    /// Lines change how the queue holds a busy node's events, never when
    /// they run: over a tie-heavy grid, every node runs the same handlers
    /// at the same instants with the same random draws as under the
    /// bouncing stepper, and the event count is the same.
    #[test]
    fn lines_run_every_handler_when_bouncing_off_busy_nodes_does() {
        let mut turned_away = 0;
        for seed in 0..300 {
            let (logs, total, _) = tangle(seed, false);
            let (reference, reference_total, bounces) = tangle(seed, true);
            for (node, (log, reference)) in logs.iter().zip(&reference).enumerate() {
                assert!(log == reference, "seed {seed}: node {node}'s handlers differ");
            }
            assert_eq!(total, reference_total, "seed {seed}: event count");
            turned_away += bounces;
        }
        assert!(turned_away > 10_000, "ties at busy nodes are common: {turned_away} turn-aways");
    }

    #[test]
    fn fault_rules_draw_only_for_a_nonzero_drop_rate() {
        use rand::RngCore;
        let s = SimTime::from_secs;
        let mut sim = Simulation::new(two_region_topo(), 1); // no jitter: sends draw no latency
        let a = sim.add_node(sim.topology().zone("a", 0), Recorder::default());
        let b = sim.add_node(sim.topology().zone("b", 0), Recorder::default());
        let cut = sim.add_node(sim.topology().zone("a", 1), Recorder::default());
        sim.install_fault_plan(
            FaultPlan::new()
                .isolate_replica(cut, SimTime::ZERO, s(1))
                .degrade_links(&[a], &[b], 0.0, SimTime::from_millis(5), SimTime::ZERO, s(1))
                .degrade_links(&[b], &[a], 0.5, SimTime::ZERO, SimTime::ZERO, s(1)),
        );
        let next_draw = |rng: &SmallRng| rng.clone().next_u64();
        let before = sim.rng.clone();
        sim.post(SimTime::ZERO, a, cut, Msg(1, 8));
        sim.post(SimTime::ZERO, cut, b, Msg(2, 8));
        sim.post(SimTime::ZERO, a, b, Msg(3, 8));
        assert_eq!(next_draw(&sim.rng), next_draw(&before), "cut and zero-rate sends draw nothing");
        for i in 0..3 {
            sim.post(SimTime::ZERO, b, a, Msg(4 + i, 8));
        }
        let mut expected = before;
        for _ in 0..3 {
            expected.next_u64();
        }
        assert_eq!(next_draw(&sim.rng), next_draw(&expected), "one draw per degraded send");
        sim.run_until(s(1));
        let at_b = &sim.actor::<Recorder>(b).arrivals;
        assert_eq!(at_b.len(), 1, "only the zero-rate degraded send reaches b");
        assert!(at_b[0].0 >= SimTime::from_millis(45), "40 ms away, 5 ms late");
    }
}
