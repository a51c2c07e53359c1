//! The IRMC channel rig behind Figures 9b–9d and the commit-channel
//! microbenchmark: four sender endpoints in Virginia zones (an agreement
//! group, `fa = 1`) feed three receiver endpoints in Tokyo (an execution
//! group, `fe = 1`) over one subchannel; receivers consume in order and
//! advance their window every few deliveries.
//!
//! What differs between the experiments is how the senders are fed
//! ([`Feed`]); everything else — payload, transport frames, actors,
//! placement, CPU and traffic aggregation — exists once, here.

use crate::stats::percentile;
use crate::topology::ec2_topology;
use spider::host::{channel_io, receiver_frame, sender_frame};
use spider::messages::ChannelLeg;
use spider_crypto::{CostModel, Digest, Digestible, Keyring};
use spider_irmc::{
    Action, ChannelMode, IrmcConfig, ReceiveResult, ReceiverEndpoint, SenderEndpoint, TICK_INTERVAL,
};
use spider_sim::{Actor, Context, NodeId, ObsReport, Simulation, Timer};
use spider_types::{Position, SimTime, Sink, WireSize};
use std::sync::Arc;

const N_SENDERS: usize = 4;
const N_RECEIVERS: usize = 3;

/// How the senders submit positions.
#[derive(Debug, Clone, Copy)]
pub(super) enum Feed {
    /// One handler fills the whole window with single-slot submissions
    /// and refills it whenever it moves (Fig 9b–d's flood).
    FillWindow,
    /// Flood with ranges of this many slots, ONE range per handler
    /// invocation, re-armed by a near-zero timer: the busy-server CPU
    /// model then paces submissions at the node's actual processing rate
    /// (a single handler that fills the whole window would hold every
    /// send back until all its CPU work is charged). The 1 ns re-arm
    /// delay lets queued incoming messages win the tie at the busy
    /// boundary — otherwise the pump would starve the IRMC-SC share
    /// exchange and nothing would ever certify.
    Pump(usize),
    /// One range of this many slots per interval, well below saturation;
    /// stops one interval before the end so the tail drains, and records
    /// submit→deliver latency per slot.
    Paced(usize, SimTime),
}

impl Feed {
    /// Slots per submission (and per range certificate).
    fn range(self) -> usize {
        match self {
            Feed::FillWindow => 1,
            Feed::Pump(range) | Feed::Paced(range, _) => range.max(1),
        }
    }
}

/// One run of the rig.
pub(super) struct Rig {
    pub mode: ChannelMode,
    pub feed: Feed,
    /// Payload bytes per slot.
    pub msg_size: usize,
    /// Subchannel capacity (in-flight positions).
    pub capacity: u64,
    /// Receivers move their window forward after this many deliveries.
    pub move_every: u64,
    /// Record spans, causal edges, CPU attribution and watchdog marks.
    pub traced: bool,
    pub duration: SimTime,
    pub seed: u64,
}

/// What a run measured.
pub(super) struct Outcome {
    /// Delivered slots per second, averaged over receivers.
    pub slots_per_sec: f64,
    /// Mean CPU utilization of the sender endpoints (0..1).
    pub sender_cpu: f64,
    /// Mean CPU utilization of the receiver endpoints (0..1).
    pub receiver_cpu: f64,
    /// WAN bytes sent by all endpoints (content plus control).
    pub wan_bytes: u64,
    /// LAN bytes sent within the sender group (IRMC-SC shares).
    pub lan_bytes: u64,
    /// Paced feed: p50 / p99 submit→deliver latency (ms); NaN otherwise.
    pub commit_p50_ms: f64,
    pub commit_p99_ms: f64,
    /// The recorder's report when the run was traced.
    pub obs: Option<ObsReport>,
}

/// Traced runs record full request spans for every `SAMPLE_STRIDE`-th slot
/// position. Flooding certifies hundreds of thousands of slots per run,
/// and the recorder keeps every event: sampling bounds what its logs hold
/// and keeps trace bookkeeping from dominating. The stride is prime so it
/// never beats against the power-of-two range sizes the sweep uses.
const SAMPLE_STRIDE: u64 = 97;

/// Whether a slot position is one of the traced samples.
fn sampled(pos: u64) -> bool {
    pos.is_multiple_of(SAMPLE_STRIDE)
}

/// Payload: identical content per position on all senders.
#[derive(Debug, Clone, PartialEq)]
struct Blob {
    pos: u64,
    size: usize,
}

impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        self.size
    }

    fn trace_kind(&self) -> &'static str {
        "commit-slot"
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        // Positions start at 1, so sampled ids are always nonzero (the
        // recorder reserves req 0 for "untracked").
        if sampled(self.pos) {
            visit(self.pos);
        }
    }
}

impl Digestible for Blob {
    fn digest(&self) -> Digest {
        Digest::builder().str("commit").u64(self.pos).u64(self.size as u64).finish()
    }
}

/// Transport frames of the benchmark channel.
type M = ChannelLeg<Blob>;

const TAG_START: u64 = 0;
const TAG_TICK: u64 = 1;
const TAG_SUBMIT: u64 = 2;
const TAG_NEXT: u64 = 3;
const TAG_COLLECTOR: u64 = 100;

struct SenderHost {
    ep: SenderEndpoint<Blob>,
    feed: Feed,
    msg_size: usize,
    next_pos: u64,
    receivers: Arc<[NodeId]>,
    peers: Arc<[NodeId]>,
    /// Paced feed: stop submitting after this time (drain tail cleanly).
    stop_at: SimTime,
    /// Paced feed: actual submission time per range (first position, at).
    submits: Vec<(u64, SimTime)>,
}

impl SenderHost {
    /// Submits the range starting at `first`. Traced runs open a request
    /// span per sampled slot; all senders submit every position, so the
    /// recorder keeps the earliest enter as the request's start (later
    /// enters fold into the same open span).
    fn submit(&mut self, ctx: &mut Context<'_, M>, first: u64) {
        let end = first + self.feed.range() as u64;
        self.next_pos = end;
        let msgs: Vec<Blob> = (first..end).map(|pos| Blob { pos, size: self.msg_size }).collect();
        if ctx.obs_enabled() {
            for b in msgs.iter().filter(|b| sampled(b.pos)) {
                ctx.open_request(b.pos);
            }
        }
        self.channel(ctx, |ep, out| {
            ep.send_batch(0, Position(first), msgs, out);
        });
    }

    /// Submits the next range if all of it fits the window; otherwise
    /// the feed resumes on `WindowMoved`.
    fn submit_if_fits(&mut self, ctx: &mut Context<'_, M>) -> bool {
        let w = self.ep.window(0);
        let fits = !w.is_above(Position(self.next_pos + self.feed.range() as u64 - 1));
        if fits {
            self.submit(ctx, self.next_pos.max(w.start().0));
        }
        fits
    }

    /// Runs the flood feeds (on start, on the pump timer, and whenever
    /// the window moved); the paced feed is driven by its own timer.
    fn flood(&mut self, ctx: &mut Context<'_, M>) {
        match self.feed {
            Feed::FillWindow => while self.submit_if_fits(ctx) {},
            Feed::Pump(_) => {
                if self.submit_if_fits(ctx) {
                    ctx.set_timer(SimTime::from_nanos(1), TAG_NEXT);
                }
            }
            Feed::Paced(..) => {}
        }
    }

    fn submit_paced(&mut self, ctx: &mut Context<'_, M>, interval: SimTime) {
        self.submits.push((self.next_pos, ctx.now()));
        self.submit(ctx, self.next_pos);
        ctx.set_timer(interval, TAG_SUBMIT);
    }

    /// Runs `call` on the endpoint, carrying out what it emits as it emits
    /// it; once it returns, a moved window is refilled.
    fn channel(
        &mut self,
        ctx: &mut Context<'_, M>,
        call: impl FnOnce(&mut SenderEndpoint<Blob>, &mut dyn Sink<Action<Blob>>),
    ) {
        let mut moved = false;
        call(&mut self.ep, &mut |a| {
            if let Some(Action::WindowMoved { .. } | Action::Unblocked { .. }) =
                channel_io(ctx, "sender", &self.peers, &self.receivers, |leg| leg, a)
            {
                moved = true;
                if ctx.obs_enabled() {
                    ctx.health_mark("bench-commit", 0);
                }
            }
        });
        if ctx.obs_enabled() {
            ctx.health_pending("bench-commit", 0, self.ep.unacked_slots());
        }
        if moved {
            self.flood(ctx);
        }
    }
}

impl Actor<M> for SenderHost {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        // Delay the start until every node exists.
        ctx.set_timer(SimTime::from_millis(1), TAG_START);
        if self.ep.wants_tick() {
            ctx.arm_if_idle(TAG_TICK, TICK_INTERVAL);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let (peers, receivers) = (self.peers.clone(), self.receivers.clone());
        self.channel(ctx, |ep, out| sender_frame(ep, &peers, &receivers, from, msg, out));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: Timer) {
        match (timer.tag, self.feed) {
            (TAG_START, Feed::Paced(_, interval)) => self.submit_paced(ctx, interval),
            (TAG_SUBMIT, Feed::Paced(_, interval)) if ctx.now() < self.stop_at => {
                self.submit_paced(ctx, interval);
            }
            (TAG_START | TAG_NEXT, _) => self.flood(ctx),
            (TAG_TICK, _) => {
                self.channel(ctx, |ep, out| ep.tick(out));
                if self.ep.wants_tick() {
                    ctx.arm_if_idle(TAG_TICK, TICK_INTERVAL);
                }
            }
            _ => {}
        }
    }
}

struct ReceiverHost {
    ep: ReceiverEndpoint<Blob>,
    next: u64,
    delivered: u64,
    /// Paced feed: (position, delivery time) per delivered slot.
    deliveries: Vec<(u64, SimTime)>,
    record: bool,
    senders: Arc<[NodeId]>,
    move_every: u64,
    /// Positions a drain moves the window to (one buffer, reused).
    moves: Vec<u64>,
}

impl ReceiverHost {
    fn drain(&mut self, ctx: &mut Context<'_, M>) {
        let before = self.delivered;
        loop {
            match self.ep.try_receive(0, Position(self.next)) {
                ReceiveResult::Ready(_) => {
                    self.delivered += 1;
                    if self.record {
                        self.deliveries.push((self.next, ctx.now()));
                    }
                    if ctx.obs_enabled() && sampled(self.next) {
                        ctx.close_request(self.next);
                    }
                    self.next += 1;
                    if self.delivered.is_multiple_of(self.move_every) {
                        self.moves.push(self.next);
                    }
                }
                ReceiveResult::TooOld(start) => {
                    self.next = start.0;
                }
                ReceiveResult::Pending => break,
            }
        }
        // Receiver-side progress mark, mirroring the core stack: the
        // watchdog follows delivery cadence, not window-move cadence.
        if self.delivered > before && ctx.obs_enabled() {
            ctx.health_mark("bench-commit", 0);
        }
        // The window moves after the deliveries are recorded: moving it
        // only drops slots below `next`, and its frames leave behind them.
        let mut moves = std::mem::take(&mut self.moves);
        self.channel(ctx, |ep, out| {
            for p in moves.drain(..) {
                ep.move_window(0, Position(p), out);
            }
        });
        self.moves = moves;
    }

    /// Runs `call` on the endpoint, carrying out what it emits as it emits
    /// it.
    fn channel(
        &mut self,
        ctx: &mut Context<'_, M>,
        call: impl FnOnce(&mut ReceiverEndpoint<Blob>, &mut dyn Sink<Action<Blob>>),
    ) {
        call(&mut self.ep, &mut |a| {
            if let Some(Action::SetTimer { token, delay }) =
                channel_io(ctx, "receiver", &self.senders, &[], |leg| leg, a)
            {
                ctx.arm(TAG_COLLECTOR + token, delay);
            }
        });
    }
}

impl Actor<M> for ReceiverHost {
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
        let senders = self.senders.clone();
        self.channel(ctx, |ep, out| receiver_frame(ep, &senders, from, msg, out));
        self.drain(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: Timer) {
        if timer.tag >= TAG_COLLECTOR {
            // A `CarrierTimeout` is informational: the refetch frames it
            // triggered are already out.
            self.channel(ctx, |ep, out| {
                let _ = ep.on_timer(timer.tag - TAG_COLLECTOR, out);
            });
        }
    }
}

impl Rig {
    /// Builds the channel, runs it for `duration`, and aggregates.
    pub(super) fn run(&self) -> Outcome {
        let mut sim: Simulation<M> = Simulation::new(ec2_topology(), self.seed);
        if self.traced {
            sim.enable_obs();
        }
        let range = self.feed.range();
        let icfg = IrmcConfig::new(self.mode, N_SENDERS, 1, N_RECEIVERS, 1, self.capacity)
            .with_cost(CostModel::default())
            .with_range(range);
        let ring = Keyring::new(7);
        let pace = match self.feed {
            Feed::Paced(_, interval) => Some(interval),
            _ => None,
        };

        // Node ids are handed out in spawn order: senders first.
        let sender_nodes: Arc<[NodeId]> = (0..N_SENDERS as u32).map(NodeId).collect();
        let receiver_nodes: Arc<[NodeId]> =
            (N_SENDERS as u32..(N_SENDERS + N_RECEIVERS) as u32).map(NodeId).collect();
        for (i, &expected_id) in sender_nodes.iter().enumerate() {
            let zone = sim.topology().zone("virginia", i as u8);
            let host = SenderHost {
                ep: SenderEndpoint::new(icfg.clone(), i, ring.clone()),
                feed: self.feed,
                msg_size: self.msg_size,
                next_pos: 1,
                receivers: receiver_nodes.clone(),
                peers: sender_nodes.clone(),
                stop_at: self.duration.saturating_sub(pace.unwrap_or_default()),
                submits: Vec::new(),
            };
            let id = sim.add_node(zone, host);
            debug_assert_eq!(id, expected_id);
        }
        for (j, &expected_id) in receiver_nodes.iter().enumerate() {
            let zone = sim.topology().zone("tokyo", j as u8);
            let host = ReceiverHost {
                ep: ReceiverEndpoint::new(icfg.clone(), j, ring.clone()),
                next: 1,
                delivered: 0,
                deliveries: Vec::new(),
                record: pace.is_some(),
                senders: sender_nodes.clone(),
                move_every: self.move_every,
                moves: Vec::new(),
            };
            let id = sim.add_node(zone, host);
            debug_assert_eq!(id, expected_id);
        }

        sim.run_until(self.duration);
        let secs = self.duration.as_secs_f64();
        let delivered: u64 =
            receiver_nodes.iter().map(|n| sim.actor::<ReceiverHost>(*n).delivered).sum();
        let mean_cpu = |nodes: &[NodeId]| {
            nodes.iter().map(|n| sim.stats().cpu(*n).utilization(self.duration)).sum::<f64>()
                / nodes.len() as f64
        };
        let wan_sent =
            |nodes: &[NodeId]| -> u64 { nodes.iter().map(|n| sim.stats().net(*n).wan_sent).sum() };

        // Paced feed: latency of a slot is measured from the instant its
        // receiver's collector actually submitted the range (each sender
        // records its own submit times — timer schedules slip by the
        // handler's charged CPU, so a fixed schedule would overstate it).
        let mut lat_ms: Vec<f64> = Vec::new();
        for (j, n) in receiver_nodes.iter().enumerate() {
            let submits = &sim.actor::<SenderHost>(sender_nodes[j % N_SENDERS]).submits;
            for &(pos, at) in &sim.actor::<ReceiverHost>(*n).deliveries {
                let first = (pos - 1) / range as u64 * range as u64 + 1;
                if let Some(&(_, submitted)) = submits.iter().find(|(f, _)| *f == first) {
                    lat_ms.push((at - submitted).as_secs_f64() * 1e3);
                }
            }
        }
        lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let lat = |q| if lat_ms.is_empty() { f64::NAN } else { percentile(&lat_ms, q) };

        Outcome {
            slots_per_sec: delivered as f64 / N_RECEIVERS as f64 / secs,
            sender_cpu: mean_cpu(&sender_nodes),
            receiver_cpu: mean_cpu(&receiver_nodes),
            wan_bytes: wan_sent(&sender_nodes) + wan_sent(&receiver_nodes),
            lan_bytes: sender_nodes.iter().map(|n| sim.stats().net(*n).lan_sent).sum(),
            commit_p50_ms: lat(50.0),
            commit_p99_ms: lat(99.0),
            obs: self.traced.then(|| sim.obs().report()),
        }
    }
}
