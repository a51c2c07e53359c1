//! The client used by all baseline systems: broadcast to a replica set,
//! accept `quorum` matching replies. Reuses Spider's workload machinery so
//! latency comparisons are apples-to-apples.

use crate::messages::BaseMsg;
use bytes::Bytes;
use rand::Rng;
use spider::directory::Directory;
use spider::messages::{ClientRequest, Operation, Reply};
use spider::{Sample, SpiderConfig, WorkloadSpec};
use spider_crypto::Hashed;
use spider_sim::{Actor, Context, Timer, TimerId};
use spider_types::{ClientId, NodeId, OpKind, SimTime, WireSize};
use std::collections::HashMap;

const TAG_ISSUE: u64 = 1;
const TAG_RETRY: u64 = 2;

struct InFlight {
    kind: OpKind,
    op: Bytes,
    tc: u64,
    issued: SimTime,
    replies: HashMap<NodeId, Bytes>,
}

/// A baseline-system client actor.
pub struct BaselineClient {
    cfg: SpiderConfig,
    id: ClientId,
    /// Replicas this client talks to (the whole group for BFT/BFT-WV, the
    /// local site for HFT).
    replicas: Vec<NodeId>,
    quorum: usize,
    /// Reply quorum for strongly consistent reads (2f+1 for PBFT's
    /// optimized read; equal to `quorum` where strong reads are ordered).
    strong_read_quorum: usize,
    directory: Directory,
    workload: Option<WorkloadSpec>,
    tc: u64,
    issued_count: u64,
    in_flight: Option<InFlight>,
    /// Completed request samples.
    pub samples: Vec<Sample>,
    timers: HashMap<u64, TimerId>,
}

impl BaselineClient {
    /// Creates a client that broadcasts to `replicas` and accepts `quorum`
    /// matching replies.
    pub fn new(
        cfg: SpiderConfig,
        id: ClientId,
        replicas: Vec<NodeId>,
        quorum: usize,
        directory: Directory,
        workload: Option<WorkloadSpec>,
    ) -> Self {
        BaselineClient {
            cfg,
            id,
            replicas,
            quorum,
            strong_read_quorum: quorum,
            directory,
            workload,
            tc: 0,
            issued_count: 0,
            in_flight: None,
            samples: Vec::new(),
            timers: HashMap::new(),
        }
    }

    /// Overrides the strong-read quorum (PBFT optimized reads need 2f+1).
    #[must_use]
    pub fn with_strong_read_quorum(mut self, q: usize) -> Self {
        self.strong_read_quorum = q;
        self
    }

    fn schedule_next_issue(&mut self, ctx: &mut Context<'_, BaseMsg>) {
        let Some(w) = &self.workload else { return };
        if w.max_ops != 0 && self.issued_count >= w.max_ops {
            return;
        }
        let mean = 1.0 / w.rate_per_sec.max(1e-9);
        let u: f64 = ctx.rng().gen_range(1e-9..1.0f64);
        let gap = SimTime::from_secs_f64(-u.ln() * mean);
        self.arm(ctx, TAG_ISSUE, gap);
    }

    fn issue(&mut self, ctx: &mut Context<'_, BaseMsg>, kind: OpKind, op: Bytes) {
        self.tc += 1;
        self.issued_count += 1;
        self.in_flight =
            Some(InFlight { kind, op, tc: self.tc, issued: ctx.now(), replies: HashMap::new() });
        self.transmit(ctx);
        let retry = self.cfg.client_retry;
        self.arm(ctx, TAG_RETRY, retry);
    }

    fn transmit(&mut self, ctx: &mut Context<'_, BaseMsg>) {
        let Some(inf) = &self.in_flight else { return };
        let request = Hashed::new(ClientRequest {
            client: self.id,
            tc: inf.tc,
            operation: Operation { op: inf.op.clone(), kind: inf.kind },
        });
        ctx.charge(
            self.cfg.cost.rsa_sign()
                + self.cfg.cost.mac_vector(self.replicas.len(), request.wire_size()),
        );
        for node in self.replicas.clone() {
            ctx.send(node, BaseMsg::Request(request.clone()));
        }
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, reply: Reply) {
        ctx.charge(self.cfg.cost.hmac(reply.result.len()));
        let Some(inf) = &mut self.in_flight else { return };
        if reply.tc != inf.tc || reply.weak != (inf.kind == OpKind::WeakRead) {
            return;
        }
        inf.replies.insert(from, reply.result);
        let needed =
            if inf.kind == OpKind::StrongRead { self.strong_read_quorum } else { self.quorum };
        let mut counts: HashMap<&Bytes, usize> = HashMap::new();
        for r in inf.replies.values() {
            *counts.entry(r).or_default() += 1;
        }
        if counts.values().any(|n| *n >= needed) {
            self.samples.push(Sample { kind: inf.kind, issued: inf.issued, completed: ctx.now() });
            self.in_flight = None;
            if let Some(id) = self.timers.remove(&TAG_RETRY) {
                ctx.cancel_timer(id);
            }
        }
        let _ = &self.directory; // reserved for future re-targeting
    }

    fn arm(&mut self, ctx: &mut Context<'_, BaseMsg>, tag: u64, delay: SimTime) {
        if let Some(old) = self.timers.remove(&tag) {
            ctx.cancel_timer(old);
        }
        let id = ctx.set_timer(delay, tag);
        self.timers.insert(tag, id);
    }
}

impl Actor<BaseMsg> for BaselineClient {
    fn on_start(&mut self, ctx: &mut Context<'_, BaseMsg>) {
        if let Some(w) = &self.workload {
            let delay = w.start_delay;
            self.arm(ctx, TAG_ISSUE, delay);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, msg: BaseMsg) {
        if let BaseMsg::Reply(reply) = msg {
            self.on_reply(ctx, from, reply);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaseMsg>, timer: Timer) {
        self.timers.remove(&timer.tag);
        match timer.tag {
            TAG_ISSUE => {
                if self.in_flight.is_none() {
                    let w = self.workload.as_ref().expect("workload present");
                    let x: f64 = ctx.rng().gen_range(0.0..1.0);
                    let kind = if x < w.write_fraction {
                        OpKind::Write
                    } else if x < w.write_fraction + w.strong_read_fraction {
                        OpKind::StrongRead
                    } else {
                        OpKind::WeakRead
                    };
                    let op = (w.op_factory)(self.issued_count, kind, w.payload_bytes);
                    self.issue(ctx, kind, op);
                }
                self.schedule_next_issue(ctx);
            }
            TAG_RETRY if self.in_flight.is_some() => {
                self.transmit(ctx);
                let retry = self.cfg.client_retry;
                self.arm(ctx, TAG_RETRY, retry);
            }
            _ => {}
        }
    }
}
