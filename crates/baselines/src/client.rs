//! The client used by all baseline systems: broadcast to a replica set,
//! accept `f + 1` matching replies. Reuses Spider's workload machinery so
//! latency comparisons are apples-to-apples.

use crate::messages::BaseMsg;
use bytes::Bytes;
use spider::client::CLIENT_RETRY;
use spider::directory::Directory;
use spider::messages::{ClientRequest, Operation};
use spider::{Sample, SpiderConfig, WorkloadSpec};
use spider_crypto::Hashed;
use spider_sim::{Actor, Context, Simulation, Timer};
use spider_types::{ClientId, GroupId, NodeId, OpKind, SimTime, WireSize};

const TAG_ISSUE: u64 = 1;
const TAG_RETRY: u64 = 2;

/// The request in flight, under the client's current counter.
struct InFlight {
    kind: OpKind,
    op: Bytes,
    issued: SimTime,
}

/// A baseline-system client actor.
pub struct BaselineClient {
    cfg: SpiderConfig,
    id: ClientId,
    /// Replicas this client talks to (the whole group for BFT/BFT-WV, the
    /// local site for HFT).
    replicas: Vec<NodeId>,
    /// Reply quorum for strongly consistent reads (2f+1 for PBFT's
    /// optimized read; f+1 where strong reads are ordered).
    strong_read_quorum: usize,
    workload: WorkloadSpec,
    /// Counter of the last request issued: how many were issued.
    tc: u64,
    in_flight: Option<InFlight>,
    /// The replies to the request in flight, one per replica.
    replies: Vec<(NodeId, Bytes)>,
    /// Completed request samples.
    pub samples: Vec<Sample>,
}

impl BaselineClient {
    /// Creates a client that broadcasts to `replicas` and accepts `f + 1`
    /// matching replies, or `strong_read_quorum` for a strong read.
    pub fn new(
        cfg: SpiderConfig,
        id: ClientId,
        replicas: Vec<NodeId>,
        strong_read_quorum: usize,
        workload: WorkloadSpec,
    ) -> Self {
        BaselineClient {
            cfg,
            id,
            replicas,
            strong_read_quorum,
            workload,
            tc: 0,
            in_flight: None,
            replies: Vec::new(),
            samples: Vec::new(),
        }
    }

    fn transmit(&mut self, ctx: &mut Context<'_, BaseMsg>) {
        let Some(inf) = &self.in_flight else { return };
        let request = Hashed::new(ClientRequest {
            client: self.id,
            tc: self.tc,
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
}

impl Actor<BaseMsg> for BaselineClient {
    fn on_start(&mut self, ctx: &mut Context<'_, BaseMsg>) {
        ctx.arm(TAG_ISSUE, self.workload.start_delay);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, BaseMsg>, from: NodeId, msg: BaseMsg) {
        let BaseMsg::Reply(reply) = msg else { return };
        ctx.charge(self.cfg.cost.hmac(reply.result.len()));
        let Some(inf) = &mut self.in_flight else { return };
        if reply.tc != self.tc || reply.weak != (inf.kind == OpKind::WeakRead) {
            return;
        }
        // A repeated reply from a node replaces its earlier one.
        match self.replies.iter_mut().find(|(node, _)| *node == from) {
            Some(earlier) => earlier.1 = reply.result,
            None => self.replies.push((from, reply.result)),
        }
        let needed =
            if inf.kind == OpKind::StrongRead { self.strong_read_quorum } else { self.cfg.fa + 1 };
        // Counted in place: there are at most as many replies as replicas.
        let results = || self.replies.iter().map(|(_, r)| r);
        if results().any(|r| results().filter(|q| *q == r).count() >= needed) {
            self.samples.push(Sample { kind: inf.kind, issued: inf.issued, completed: ctx.now() });
            self.in_flight = None;
            ctx.disarm(TAG_RETRY);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, BaseMsg>, timer: Timer) {
        match timer.tag {
            TAG_ISSUE => {
                let w = &self.workload;
                if self.in_flight.is_none() {
                    let kind = w.next_kind(ctx.rng());
                    let op = (w.op_factory)(self.tc, kind, w.payload_bytes);
                    self.tc += 1;
                    self.in_flight = Some(InFlight { kind, op, issued: ctx.now() });
                    self.replies.clear();
                    self.transmit(ctx);
                    ctx.arm(TAG_RETRY, CLIENT_RETRY);
                }
                let w = &self.workload;
                if w.max_ops == 0 || self.tc < w.max_ops {
                    let gap = w.next_gap(ctx.rng());
                    ctx.arm(TAG_ISSUE, gap);
                }
            }
            TAG_RETRY if self.in_flight.is_some() => {
                self.transmit(ctx);
                ctx.arm(TAG_RETRY, CLIENT_RETRY);
            }
            _ => {}
        }
    }
}

/// The clients of one baseline deployment, in spawn order: a client's id
/// is its position.
pub(crate) struct ClientSet {
    cfg: SpiderConfig,
    directory: Directory,
    strong_read_quorum: usize,
    /// Each client with the group whose replicas it talks to.
    clients: Vec<(ClientId, GroupId, NodeId)>,
}

impl ClientSet {
    /// Clients that need `strong_read_quorum` matching replies to a
    /// strong read.
    pub(crate) fn new(cfg: SpiderConfig, directory: Directory, strong_read_quorum: usize) -> Self {
        ClientSet { cfg, directory, strong_read_quorum, clients: Vec::new() }
    }

    /// Spawns `count` clients in `region` issuing `workload`, each talking
    /// to every replica of `group`. Panics if `group` has no replicas.
    pub(crate) fn spawn(
        &mut self,
        sim: &mut Simulation<BaseMsg>,
        group: GroupId,
        region: &str,
        count: usize,
        workload: WorkloadSpec,
    ) -> Vec<NodeId> {
        let replicas = self.directory.group_replicas(group).to_vec();
        assert!(!replicas.is_empty(), "unknown group {group}");
        let mut nodes = Vec::new();
        for zone in sim.topology().cycle_zones(&[region], 0, count) {
            let id = ClientId(self.clients.len() as u32);
            let client = BaselineClient::new(
                self.cfg.clone(),
                id,
                replicas.clone(),
                self.strong_read_quorum,
                workload.clone(),
            );
            let node = sim.add_node(zone, client);
            self.directory.register_client(id, node);
            self.directory.register_client_group(id, group);
            self.clients.push((id, group, node));
            nodes.push(node);
        }
        nodes
    }

    /// Every client's samples, in spawn order, with the client's group.
    pub(crate) fn samples<'a>(
        &'a self,
        sim: &'a Simulation<BaseMsg>,
    ) -> impl Iterator<Item = (ClientId, GroupId, Vec<Sample>)> + 'a {
        let samples = |node| sim.actor::<BaselineClient>(node).samples.clone();
        self.clients.iter().map(move |&(id, group, node)| (id, group, samples(node)))
    }
}
