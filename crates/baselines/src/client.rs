//! The client used by all baseline systems: broadcast to a replica set,
//! accept `quorum` matching replies. Reuses Spider's workload machinery so
//! latency comparisons are apples-to-apples.

use crate::messages::BaseMsg;
use bytes::Bytes;
use spider::client::CLIENT_RETRY;
use spider::messages::{ClientRequest, Operation, Reply};
use spider::{Sample, SpiderConfig, WorkloadSpec};
use spider_crypto::Hashed;
use spider_sim::{Actor, Context, Timer};
use spider_types::{ClientId, NodeId, OpKind, SimTime, WireSize};
use std::collections::BTreeMap;

const TAG_ISSUE: u64 = 1;
const TAG_RETRY: u64 = 2;

struct InFlight {
    kind: OpKind,
    op: Bytes,
    tc: u64,
    issued: SimTime,
    replies: BTreeMap<NodeId, Bytes>,
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
    workload: Option<WorkloadSpec>,
    tc: u64,
    issued_count: u64,
    in_flight: Option<InFlight>,
    /// Completed request samples.
    pub samples: Vec<Sample>,
}

impl BaselineClient {
    /// Creates a client that broadcasts to `replicas` and accepts `quorum`
    /// matching replies.
    pub fn new(
        cfg: SpiderConfig,
        id: ClientId,
        replicas: Vec<NodeId>,
        quorum: usize,
        workload: Option<WorkloadSpec>,
    ) -> Self {
        BaselineClient {
            cfg,
            id,
            replicas,
            quorum,
            strong_read_quorum: quorum,
            workload,
            tc: 0,
            issued_count: 0,
            in_flight: None,
            samples: Vec::new(),
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
        let gap = w.next_gap(ctx.rng());
        ctx.arm(TAG_ISSUE, gap);
    }

    fn issue(&mut self, ctx: &mut Context<'_, BaseMsg>, kind: OpKind, op: Bytes) {
        self.tc += 1;
        self.issued_count += 1;
        self.in_flight =
            Some(InFlight { kind, op, tc: self.tc, issued: ctx.now(), replies: BTreeMap::new() });
        self.transmit(ctx);
        ctx.arm(TAG_RETRY, CLIENT_RETRY);
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
        let mut counts: BTreeMap<&Bytes, usize> = BTreeMap::new();
        for r in inf.replies.values() {
            *counts.entry(r).or_default() += 1;
        }
        if counts.values().any(|n| *n >= needed) {
            self.samples.push(Sample { kind: inf.kind, issued: inf.issued, completed: ctx.now() });
            self.in_flight = None;
            ctx.disarm(TAG_RETRY);
        }
    }
}

impl Actor<BaseMsg> for BaselineClient {
    fn on_start(&mut self, ctx: &mut Context<'_, BaseMsg>) {
        if let Some(w) = &self.workload {
            ctx.arm(TAG_ISSUE, w.start_delay);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, msg: BaseMsg) {
        if let BaseMsg::Reply(reply) = msg {
            self.on_reply(ctx, from, reply);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaseMsg>, timer: Timer) {
        match timer.tag {
            TAG_ISSUE => {
                if self.in_flight.is_none() {
                    let w = self.workload.as_ref().expect("workload present");
                    let kind = w.next_kind(ctx.rng());
                    let op = (w.op_factory)(self.issued_count, kind, w.payload_bytes);
                    self.issue(ctx, kind, op);
                }
                self.schedule_next_issue(ctx);
            }
            TAG_RETRY if self.in_flight.is_some() => {
                self.transmit(ctx);
                ctx.arm(TAG_RETRY, CLIENT_RETRY);
            }
            _ => {}
        }
    }
}
