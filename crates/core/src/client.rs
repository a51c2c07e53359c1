//! Spider clients (Fig 15) and workload generation.
//!
//! A client broadcasts each request to all `2·fe + 1` replicas of its
//! execution group and accepts a result once `fe + 1` replicas returned
//! matching replies for the current counter value. Weakly consistent
//! reads may fail to reach a matching quorum under concurrent writes; the
//! client retries and eventually escalates to a strongly consistent read
//! (§3.3). A client is always correct: an equivocating one is this one
//! with a [`crate::byzantine`] adversary rewriting what it sends.

use crate::config::SpiderConfig;
use crate::directory::Directory;
use crate::messages::{ClientRequest, Operation, Reply, SpiderMsg};
use bytes::Bytes;
use rand::Rng;
use spider_crypto::Hashed;
use spider_sim::{req_id, Actor, Context, Timer};
use spider_types::{ClientId, GroupId, NodeId, OpKind, SimTime, WireSize};
use std::sync::Arc;

const TAG_ISSUE: u64 = 1;
const TAG_RETRY: u64 = 2;

/// Client retry interval (Fig 15 `t_retry`); the PBFT baselines' clients
/// retry on the same clock.
pub const CLIENT_RETRY: SimTime = SimTime::from_millis(2_000);

/// Retransmissions before a client assumes its execution group is
/// unavailable (more than `fe` faulty members) and temporarily switches to
/// another group (§3.1).
const GROUP_FAILOVER_RETRIES: u32 = 3;

/// How many times a weakly consistent read is retried before being
/// escalated to a strongly consistent read (§3.3).
const WEAK_READ_RETRIES: u32 = 2;

/// Produces operation payloads for generated requests.
pub type OpFactory = Arc<dyn Fn(u64, OpKind, usize) -> Bytes + Send + Sync>;

/// Statistical description of a client's request stream.
#[derive(Clone)]
pub struct WorkloadSpec {
    /// Mean issue rate (requests/second, exponential interarrivals).
    pub rate_per_sec: f64,
    /// Payload size in bytes (the paper uses 200-byte requests).
    pub payload_bytes: usize,
    /// Fraction of requests that are writes.
    pub write_fraction: f64,
    /// Fraction of requests that are strongly consistent reads (the rest
    /// after writes are weak reads).
    pub strong_read_fraction: f64,
    /// Stop after this many completed requests (0 = unlimited).
    pub max_ops: u64,
    /// Delay before the first request.
    pub start_delay: SimTime,
    /// Builds the operation bytes: `(sequence, kind, payload_bytes)`.
    pub op_factory: OpFactory,
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("rate_per_sec", &self.rate_per_sec)
            .field("payload_bytes", &self.payload_bytes)
            .field("write_fraction", &self.write_fraction)
            .field("strong_read_fraction", &self.strong_read_fraction)
            .field("max_ops", &self.max_ops)
            .finish_non_exhaustive()
    }
}

fn counter_factory() -> OpFactory {
    Arc::new(|_seq, kind, payload| {
        // Pad to the requested payload size so wire costs are realistic.
        let base: &[u8] = match kind {
            OpKind::Write => b"add:1",
            OpKind::StrongRead | OpKind::WeakRead => b"get",
        };
        let mut v = base.to_vec();
        v.resize(v.len().max(payload), b' ');
        Bytes::from(v)
    })
}

impl WorkloadSpec {
    /// Pure writes at `rate` per second with `payload` bytes each.
    pub fn writes_per_sec(rate: f64, payload: usize) -> Self {
        WorkloadSpec {
            rate_per_sec: rate,
            payload_bytes: payload,
            write_fraction: 1.0,
            strong_read_fraction: 0.0,
            max_ops: 0,
            start_delay: SimTime::from_millis(10),
            op_factory: counter_factory(),
        }
    }

    /// Pure weakly consistent reads.
    pub fn weak_reads_per_sec(rate: f64, payload: usize) -> Self {
        WorkloadSpec {
            write_fraction: 0.0,
            strong_read_fraction: 0.0,
            ..WorkloadSpec::writes_per_sec(rate, payload)
        }
    }

    /// Pure strongly consistent reads.
    pub fn strong_reads_per_sec(rate: f64, payload: usize) -> Self {
        WorkloadSpec {
            write_fraction: 0.0,
            strong_read_fraction: 1.0,
            ..WorkloadSpec::writes_per_sec(rate, payload)
        }
    }

    /// Replaces the operation factory (builder-style).
    #[must_use]
    pub fn with_op_factory(mut self, f: OpFactory) -> Self {
        self.op_factory = f;
        self
    }

    /// Caps the number of requests (builder-style).
    #[must_use]
    pub fn with_max_ops(mut self, n: u64) -> Self {
        self.max_ops = n;
        self
    }

    /// Sets the start delay (builder-style).
    #[must_use]
    pub fn with_start_delay(mut self, d: SimTime) -> Self {
        self.start_delay = d;
        self
    }

    /// Draws the gap to the next request: exponential interarrivals
    /// around the configured rate.
    pub fn next_gap(&self, rng: &mut impl Rng) -> SimTime {
        let mean = 1.0 / self.rate_per_sec.max(1e-9);
        let u: f64 = rng.gen_range(1e-9..1.0f64);
        SimTime::from_secs_f64(-u.ln() * mean)
    }

    /// Draws the kind of the next request from the configured mix.
    pub fn next_kind(&self, rng: &mut impl Rng) -> OpKind {
        let x: f64 = rng.gen_range(0.0..1.0);
        if x < self.write_fraction {
            OpKind::Write
        } else if x < self.write_fraction + self.strong_read_fraction {
            OpKind::StrongRead
        } else {
            OpKind::WeakRead
        }
    }
}

/// One completed request, as recorded by a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Request classification.
    pub kind: OpKind,
    /// Simulated time the request was first issued.
    pub issued: SimTime,
    /// Simulated time the reply quorum completed.
    pub completed: SimTime,
}

impl Sample {
    /// End-to-end response time.
    pub fn latency(&self) -> SimTime {
        self.completed - self.issued
    }
}

struct InFlight {
    kind: OpKind,
    op: Bytes,
    tc: u64,
    issued: SimTime,
    weak_retries_left: u32,
    /// Retransmissions without completion; drives group failover (§3.1).
    retries: u32,
}

/// A Spider client actor.
pub struct SpiderClient {
    cfg: SpiderConfig,
    id: ClientId,
    group: GroupId,
    directory: Directory,
    workload: Option<WorkloadSpec>,

    /// Counter for ordered operations (writes + strong reads): this is
    /// the request-subchannel position, so it must advance by exactly one
    /// per ordered request (Fig 15).
    tc: u64,
    /// Separate counter for weakly consistent reads, which never enter
    /// the request channel (§3.3) and therefore must not consume
    /// subchannel positions.
    weak_tc: u64,
    issued_count: u64,
    in_flight: Option<InFlight>,
    /// Replies to the in-flight request, at most one per replica node:
    /// (node, result, resubmit flag). Cleared for each request, not
    /// rebuilt, so its storage is reused.
    replies: Vec<(NodeId, Bytes, bool)>,
    /// Completed request samples (read by the harness after the run).
    pub samples: Vec<Sample>,
}

impl SpiderClient {
    /// Creates a client attached to execution group `group`.
    pub fn new(
        cfg: SpiderConfig,
        id: ClientId,
        group: GroupId,
        directory: Directory,
        workload: Option<WorkloadSpec>,
    ) -> Self {
        SpiderClient {
            cfg,
            id,
            group,
            directory,
            workload,
            tc: 0,
            weak_tc: 0,
            issued_count: 0,
            in_flight: None,
            replies: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// The client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    fn schedule_next_issue(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        let Some(w) = &self.workload else { return };
        if w.max_ops != 0 && self.issued_count >= w.max_ops {
            return;
        }
        let gap = w.next_gap(ctx.rng());
        ctx.arm(TAG_ISSUE, gap);
    }

    fn issue(&mut self, ctx: &mut Context<'_, SpiderMsg>, kind: OpKind, op: Bytes) {
        let tc = if kind == OpKind::WeakRead {
            self.weak_tc += 1;
            self.weak_tc
        } else {
            self.tc += 1;
            self.tc
        };
        self.issued_count += 1;
        self.replies.clear();
        self.in_flight = Some(InFlight {
            kind,
            op: op.clone(),
            tc,
            issued: ctx.now(),
            weak_retries_left: WEAK_READ_RETRIES,
            retries: 0,
        });
        // Lifecycle span: opened at first issue, closed by the reply
        // quorum in `on_reply`. Weak reads never enter the request
        // channel, so only ordered requests are traced end-to-end.
        if kind != OpKind::WeakRead {
            ctx.open_request(req_id(self.id.0, tc));
        }
        self.transmit(ctx);
        ctx.arm(TAG_RETRY, CLIENT_RETRY);
    }

    /// Broadcasts the in-flight request to the execution group (Fig 15
    /// L12); reissues verbatim on retry.
    fn transmit(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        let Some(inf) = &self.in_flight else { return };
        let replicas = self.directory.group_replicas(self.group);
        let request = Hashed::new(ClientRequest {
            client: self.id,
            tc: inf.tc,
            operation: Operation { op: inf.op.clone(), kind: inf.kind },
        });
        // Sign once, MAC per replica (Fig 15 L7).
        ctx.charge(
            self.cfg.cost.rsa_sign()
                + self.cfg.cost.mac_vector(replicas.len(), request.wire_size()),
        );
        for &node in replicas.iter() {
            ctx.send(node, SpiderMsg::Request(request.clone()));
        }
    }

    fn on_reply(&mut self, ctx: &mut Context<'_, SpiderMsg>, from: NodeId, reply: Reply) {
        ctx.charge(self.cfg.cost.hmac(reply.result.len()));
        let group_size = self.directory.group_replicas(self.group).len();
        let quorum = self.cfg.fe + 1;
        let Some(inf) = &mut self.in_flight else { return };
        if reply.tc != inf.tc {
            return;
        }
        // Weak replies answer weak reads; ordered replies answer the rest.
        if reply.weak != (inf.kind == OpKind::WeakRead) {
            return;
        }
        // A repeated reply from a node replaces its earlier one.
        let reply = (from, reply.result, reply.resubmit);
        match self.replies.iter_mut().find(|(node, ..)| *node == from) {
            Some(earlier) => *earlier = reply,
            None => self.replies.push(reply),
        }

        // fe + 1 matching results complete the request (Fig 15 L23),
        // counted in place: there are at most as many replies as replicas.
        let results = || self.replies.iter().filter(|(.., resub)| !resub).map(|(_, r, _)| r);
        if results().any(|r| results().filter(|q| *q == r).count() >= quorum) {
            let sample = Sample { kind: inf.kind, issued: inf.issued, completed: ctx.now() };
            if inf.kind != OpKind::WeakRead {
                ctx.close_request(req_id(self.id.0, inf.tc));
            }
            self.samples.push(sample);
            self.in_flight = None;
            ctx.disarm(TAG_RETRY);
            return;
        }

        // fe + 1 resubmit indications: the value was skipped here (§A.7.9
        // remark); reissue under a fresh counter.
        let resubmits = self.replies.iter().filter(|(.., resub)| *resub).count();
        if resubmits >= quorum {
            let (kind, op, issued) = (inf.kind, inf.op.clone(), inf.issued);
            self.issue(ctx, kind, op);
            if let Some(new) = &mut self.in_flight {
                new.issued = issued; // Latency counts from first issue.
            }
            return;
        }

        // All replicas answered a weak read without a quorum: stale /
        // concurrent writes. Retry, then escalate to a strong read (§3.3).
        if inf.kind == OpKind::WeakRead && self.replies.len() >= group_size {
            if inf.weak_retries_left > 0 {
                inf.weak_retries_left -= 1;
                self.replies.clear();
                self.transmit(ctx);
            } else {
                let (op, issued) = (inf.op.clone(), inf.issued);
                self.issue(ctx, OpKind::StrongRead, op);
                if let Some(new) = &mut self.in_flight {
                    new.issued = issued;
                }
            }
        }
    }

    /// §3.1: if more than `fe` replicas of the local execution group are
    /// unavailable, a client can temporarily switch to a different group.
    /// After [`GROUP_FAILOVER_RETRIES`] fruitless retransmissions the client
    /// re-targets the next active group from the registry.
    fn maybe_fail_over(&mut self) {
        let Some(inf) = &mut self.in_flight else { return };
        inf.retries += 1;
        if inf.retries < GROUP_FAILOVER_RETRIES {
            return;
        }
        let active = self.directory.active_groups();
        let Some(pos) = active.iter().position(|g| *g == self.group) else {
            // Our group vanished entirely (RemoveGroup): take any active.
            if let Some(g) = active.first() {
                self.group = *g;
            }
            return;
        };
        if active.len() <= 1 {
            return; // Nowhere to go.
        }
        let next = active[(pos + 1) % active.len()];
        self.group = next;
        if let Some(inf) = &mut self.in_flight {
            inf.retries = 0;
            self.replies.clear();
        }
    }
}

impl Actor<SpiderMsg> for SpiderClient {
    fn on_start(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        if let Some(w) = &self.workload {
            ctx.arm(TAG_ISSUE, w.start_delay);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SpiderMsg>, from: NodeId, msg: SpiderMsg) {
        if let SpiderMsg::Reply(reply) = msg {
            self.on_reply(ctx, from, reply);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SpiderMsg>, timer: Timer) {
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
                self.maybe_fail_over();
                self.transmit(ctx);
                ctx.arm(TAG_RETRY, CLIENT_RETRY);
            }
            _ => {}
        }
    }
}
