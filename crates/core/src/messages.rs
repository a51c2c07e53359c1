//! All messages of a Spider deployment.
//!
//! The simulator is generic over one message type; [`SpiderMsg`] is that
//! type for Spider deployments. It wraps client traffic, IRMC channel
//! legs, consensus messages, checkpoint traffic, and state transfer.

use crate::checkpoint::Snapshot;
use bytes::Bytes;
use spider_crypto::{Digest, Digestible, Hashed};
use spider_irmc::{ChannelMsg, ReceiverMsg};
use spider_types::wire::{DIGEST_BYTES, HEADER_BYTES, MAC_BYTES, SIG_BYTES};
use spider_types::{ClientId, GroupId, OpKind, SeqNr, WireSize};

/// A client operation: opaque application bytes plus its classification.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    /// Application-defined encoded operation.
    pub op: Bytes,
    /// Write / strong read / weak read.
    pub kind: OpKind,
}

impl Digestible for Operation {
    fn digest(&self) -> Digest {
        Digest::builder().str("op").u64(self.kind as u64).bytes(&self.op).finish()
    }
}

impl WireSize for Operation {
    fn wire_size(&self) -> usize {
        1 + self.op.len()
    }
}

/// `⟨Write, w, c, tc⟩` / read request from a client (Fig 15).
#[derive(Debug, Clone, PartialEq)]
pub struct ClientRequest {
    /// Issuing client.
    pub client: ClientId,
    /// Client-local counter `tc`.
    pub tc: u64,
    /// The operation.
    pub operation: Operation,
}

impl Digestible for ClientRequest {
    fn digest(&self) -> Digest {
        Digest::builder()
            .str("client-request")
            .u32(self.client.0)
            .u64(self.tc)
            .digest(&self.operation.digest())
            .finish()
    }
}

impl WireSize for ClientRequest {
    fn wire_size(&self) -> usize {
        // Signed by the client and MAC'd towards the group (§5).
        HEADER_BYTES + 12 + self.operation.wire_size() + SIG_BYTES + MAC_BYTES
    }

    fn trace_kind(&self) -> &'static str {
        "request"
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        visit(spider_sim::req_id(self.client.0, self.tc));
    }
}

/// `⟨Request, r, e⟩`: a client request wrapped by execution group `origin`
/// for submission to the agreement group (Fig 16 L22). This is what the
/// consensus protocol orders.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedRequest {
    /// The client request (carries the client's signature), with the
    /// digest it was authenticated under at the previous hop.
    pub request: Hashed<ClientRequest>,
    /// The execution group that forwarded it.
    pub origin: GroupId,
}

impl Digestible for OrderedRequest {
    fn digest(&self) -> Digest {
        Digest::builder()
            .str("ordered-request")
            .u64(self.origin.0 as u64)
            .digest(&self.request.digest())
            .finish()
    }
}

impl WireSize for OrderedRequest {
    fn wire_size(&self) -> usize {
        HEADER_BYTES + 4 + self.request.wire_size()
    }

    fn trace_kind(&self) -> &'static str {
        "request"
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        self.request.trace_reqs(visit);
    }
}

/// Payload of an `Execute` (Fig 16 L31): either the full request, or — for
/// strongly consistent reads at non-target groups — a placeholder carrying
/// only the client id and counter (§3.3).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutePayload {
    /// The full ordered request.
    Full(Hashed<OrderedRequest>),
    /// Placeholder for a read executed elsewhere.
    Placeholder {
        /// The reading client.
        client: ClientId,
        /// Its request counter.
        tc: u64,
        /// The group that executes the read for real.
        target: GroupId,
    },
}

/// `⟨Execute, r, s⟩`: an ordered request forwarded through a commit
/// channel (Fig 17 L36).
///
/// It travels without a digest memo of its own: the commit channel's
/// [`spider_irmc::Run`] keeps each slot's digest, and hashing an `Execute`
/// hashes its sequence number over the full request's memoized digest,
/// never the request itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Execute {
    /// Agreement sequence number.
    pub seq: SeqNr,
    /// Full request or placeholder.
    pub payload: ExecutePayload,
}

impl Digestible for Execute {
    fn digest(&self) -> Digest {
        let b = Digest::builder().str("execute").u64(self.seq.0);
        match &self.payload {
            ExecutePayload::Full(r) => b.u64(0).digest(&r.digest()).finish(),
            ExecutePayload::Placeholder { client, tc, target } => {
                b.u64(1).u32(client.0).u64(*tc).u64(target.0 as u64).finish()
            }
        }
    }
}

impl WireSize for Execute {
    fn wire_size(&self) -> usize {
        match &self.payload {
            ExecutePayload::Full(r) => HEADER_BYTES + 8 + r.wire_size(),
            ExecutePayload::Placeholder { .. } => HEADER_BYTES + 24,
        }
    }

    fn trace_kind(&self) -> &'static str {
        "execute"
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        match &self.payload {
            ExecutePayload::Full(r) => r.trace_reqs(visit),
            ExecutePayload::Placeholder { client, tc, .. } => {
                visit(spider_sim::req_id(client.0, *tc));
            }
        }
    }
}

/// `⟨Result, uc, tc⟩`: the reply an execution replica returns (Fig 16
/// L38).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Client request counter this reply answers.
    pub tc: u64,
    /// Application result.
    pub result: Bytes,
    /// Whether this reply answers a weakly consistent read.
    pub weak: bool,
    /// Set when the replica skipped this request (group-specific read
    /// dropped under global flow control, §A.7.9): the client must
    /// resubmit under a fresh counter.
    pub resubmit: bool,
}

impl WireSize for Reply {
    fn wire_size(&self) -> usize {
        HEADER_BYTES + 10 + self.result.len() + MAC_BYTES
    }

    // A reply carries only the client-local counter `tc`, not the client
    // id (the transport addresses the client), so it cannot reconstruct
    // its request id here; the execution replica records the reply edge
    // explicitly with `Context::edge`.
    fn trace_kind(&self) -> &'static str {
        "reply"
    }
}

/// Checkpoint protocol message: `⟨Checkpoint, h, s⟩` signed (§3.4), plus
/// state-transfer requests/responses.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointMsg {
    /// A signed hash of a snapshot at sequence number `seq`.
    Announce {
        /// Snapshot sequence number.
        seq: SeqNr,
        /// Hash of the snapshot.
        state_hash: Digest,
        /// Signature by the announcing replica.
        sig: spider_crypto::Signature,
    },
    /// Ask a peer for the full state of its latest stable checkpoint at or
    /// after `seq`.
    FetchRequest {
        /// Minimum sequence number needed.
        seq: SeqNr,
    },
    /// Full-state response with the certificate proving stability.
    FetchResponse {
        /// Snapshot sequence number.
        seq: SeqNr,
        /// Hash of the snapshot (what the certificate signs).
        state_hash: Digest,
        /// `f + 1` signatures over (seq, hash) from distinct group members.
        cert: Vec<spider_crypto::Signature>,
        /// The snapshot; its length is the response's payload on the wire.
        snapshot: Snapshot,
    },
}

impl WireSize for CheckpointMsg {
    fn wire_size(&self) -> usize {
        match self {
            CheckpointMsg::Announce { .. } => HEADER_BYTES + 8 + DIGEST_BYTES + SIG_BYTES,
            CheckpointMsg::FetchRequest { .. } => HEADER_BYTES + 8 + MAC_BYTES,
            CheckpointMsg::FetchResponse { cert, snapshot, .. } => {
                HEADER_BYTES + 8 + DIGEST_BYTES + cert.len() * SIG_BYTES + snapshot.len()
            }
        }
    }
}

/// Administrative commands (§3.6), ordered through the agreement group.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminCommand {
    /// `⟨AddGroup, e, E⟩`: register execution group `group` whose replicas
    /// are already running (their node ids live in the shared directory).
    AddGroup {
        /// The group to add.
        group: GroupId,
    },
    /// `⟨RemoveGroup, e⟩`.
    RemoveGroup {
        /// The group to remove.
        group: GroupId,
    },
}

/// What the agreement group orders: ordinary requests or admin commands.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderItem {
    /// A client request forwarded by an execution group.
    Request(Hashed<OrderedRequest>),
    /// A reconfiguration command from the admin client.
    Admin(AdminCommand),
}

impl Digestible for OrderItem {
    fn digest(&self) -> Digest {
        match self {
            OrderItem::Request(r) => r.digest(),
            OrderItem::Admin(AdminCommand::AddGroup { group }) => {
                Digest::builder().str("admin-add").u64(group.0 as u64).finish()
            }
            OrderItem::Admin(AdminCommand::RemoveGroup { group }) => {
                Digest::builder().str("admin-remove").u64(group.0 as u64).finish()
            }
        }
    }
}

impl WireSize for OrderItem {
    fn wire_size(&self) -> usize {
        match self {
            OrderItem::Request(r) => r.wire_size(),
            OrderItem::Admin(_) => HEADER_BYTES + 8 + SIG_BYTES,
        }
    }

    fn trace_kind(&self) -> &'static str {
        "order"
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        if let OrderItem::Request(r) = self {
            r.trace_reqs(visit);
        }
    }
}

/// A transport frame of one IRMC (sender->receiver, receiver->sender, or
/// sender-group-internal).
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelLeg<M> {
    /// Sender-side endpoint to receiver-side endpoint.
    ToReceiver(ChannelMsg<M>),
    /// Receiver-side endpoint to sender-side endpoint.
    ToSender(ReceiverMsg),
    /// Between sender-side endpoints (IRMC-SC shares).
    Peer(ChannelMsg<M>),
}

impl<M: spider_irmc::Content> WireSize for ChannelLeg<M> {
    fn wire_size(&self) -> usize {
        match self {
            ChannelLeg::ToReceiver(m) | ChannelLeg::Peer(m) => m.wire_size(),
            ChannelLeg::ToSender(m) => m.wire_size(),
        }
    }

    fn trace_kind(&self) -> &'static str {
        match self {
            ChannelLeg::ToReceiver(m) | ChannelLeg::Peer(m) => m.trace_kind(),
            ChannelLeg::ToSender(m) => m.trace_kind(),
        }
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        if let ChannelLeg::ToReceiver(m) | ChannelLeg::Peer(m) = self {
            m.trace_reqs(visit);
        }
    }
}

/// Top-level message type of a Spider deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum SpiderMsg {
    /// Client -> execution replica.
    Request(Hashed<ClientRequest>),
    /// Execution replica -> client.
    Reply(Reply),
    /// Request-channel traffic between execution group `group` and the
    /// agreement group.
    RequestChannel {
        /// The execution group owning the channel.
        group: GroupId,
        /// The frame.
        leg: ChannelLeg<Hashed<OrderedRequest>>,
    },
    /// Commit-channel traffic between the agreement group and execution
    /// group `group`.
    CommitChannel {
        /// The execution group owning the channel.
        group: GroupId,
        /// The frame.
        leg: ChannelLeg<Execute>,
    },
    /// Consensus traffic within the agreement group.
    Agreement(spider_consensus::Msg<OrderItem>),
    /// Checkpoint traffic within (or, for fetches, across) groups.
    Checkpoint {
        /// The group whose checkpoint protocol this belongs to (the
        /// *sender's* group).
        group: GroupId,
        /// The message.
        msg: CheckpointMsg,
    },
    /// Admin client -> agreement replicas (reconfiguration, §3.6).
    Admin(AdminCommand),
}

impl WireSize for SpiderMsg {
    fn wire_size(&self) -> usize {
        match self {
            SpiderMsg::Request(r) => r.wire_size(),
            SpiderMsg::Reply(r) => r.wire_size(),
            SpiderMsg::RequestChannel { leg, .. } => HEADER_BYTES + leg.wire_size(),
            SpiderMsg::CommitChannel { leg, .. } => HEADER_BYTES + leg.wire_size(),
            SpiderMsg::Agreement(m) => m.wire_size(),
            SpiderMsg::Checkpoint { msg, .. } => msg.wire_size(),
            SpiderMsg::Admin(_) => HEADER_BYTES + 8 + SIG_BYTES,
        }
    }

    fn trace_kind(&self) -> &'static str {
        match self {
            SpiderMsg::Request(_) => "request",
            SpiderMsg::Reply(_) => "reply",
            SpiderMsg::RequestChannel { leg, .. } => match leg.trace_kind() {
                "cast" => "req-cast",
                "share" => "req-share",
                "cert" => "req-cert",
                "vouch" => "req-vouch",
                "content" => "req-content",
                _ => "req-ctrl",
            },
            SpiderMsg::CommitChannel { leg, .. } => match leg.trace_kind() {
                "cast" => "commit-cast",
                "share" => "commit-share",
                "cert" => "commit-cert",
                "vouch" => "commit-vouch",
                "content" => "commit-content",
                _ => "commit-ctrl",
            },
            SpiderMsg::Agreement(m) => m.trace_kind(),
            SpiderMsg::Checkpoint { .. } => "checkpoint",
            SpiderMsg::Admin(_) => "admin",
        }
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        match self {
            SpiderMsg::Request(r) => r.trace_reqs(visit),
            SpiderMsg::RequestChannel { leg, .. } => leg.trace_reqs(visit),
            SpiderMsg::CommitChannel { leg, .. } => leg.trace_reqs(visit),
            SpiderMsg::Agreement(m) => m.trace_reqs(visit),
            // Replies (no client id on the wire), checkpoints, and admin
            // traffic record no per-request edges here.
            SpiderMsg::Reply(_) | SpiderMsg::Checkpoint { .. } | SpiderMsg::Admin(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_types::OpKind;

    /// The simulator's event slab stores one `SpiderMsg` per queued
    /// event, so its size is host-plane cost on every workload.
    #[test]
    fn spider_msg_stays_within_120_bytes() {
        assert!(std::mem::size_of::<SpiderMsg>() <= 120, "{}", std::mem::size_of::<SpiderMsg>());
    }

    fn request(tc: u64) -> ClientRequest {
        ClientRequest {
            client: ClientId(1),
            tc,
            operation: Operation { op: Bytes::from_static(b"put k v"), kind: OpKind::Write },
        }
    }

    #[test]
    fn digests_distinguish_counters_and_clients() {
        let a = request(1).digest();
        let b = request(2).digest();
        assert_ne!(a, b);
        let mut other = request(1);
        other.client = ClientId(2);
        assert_ne!(a, other.digest());
    }

    #[test]
    fn execute_digest_distinguishes_full_and_placeholder() {
        let full = Execute {
            seq: SeqNr(5),
            payload: ExecutePayload::Full(
                OrderedRequest { request: request(1).into(), origin: GroupId(0) }.into(),
            ),
        };
        let ph = Execute {
            seq: SeqNr(5),
            payload: ExecutePayload::Placeholder { client: ClientId(1), tc: 1, target: GroupId(0) },
        };
        assert_ne!(full.digest(), ph.digest());
    }

    #[test]
    fn placeholder_is_smaller_than_full_request() {
        let full = Execute {
            seq: SeqNr(5),
            payload: ExecutePayload::Full(
                OrderedRequest { request: request(1).into(), origin: GroupId(0) }.into(),
            ),
        };
        let ph = Execute {
            seq: SeqNr(5),
            payload: ExecutePayload::Placeholder { client: ClientId(1), tc: 1, target: GroupId(0) },
        };
        assert!(ph.wire_size() < full.wire_size(), "placeholders minimize network overhead (§3.3)");
    }

    #[test]
    fn fetch_response_size_includes_state() {
        let response = |len: usize| CheckpointMsg::FetchResponse {
            seq: SeqNr(1),
            state_hash: Digest::ZERO,
            cert: vec![],
            snapshot: Snapshot::single(Bytes::from(vec![0; len])),
        };
        let (small, big) = (response(100), response(10_000));
        assert_eq!(big.wire_size() - small.wire_size(), 9_900);
    }

    #[test]
    fn order_item_admin_digests_differ_per_group() {
        let a = OrderItem::Admin(AdminCommand::AddGroup { group: GroupId(1) }).digest();
        let b = OrderItem::Admin(AdminCommand::AddGroup { group: GroupId(2) }).digest();
        let c = OrderItem::Admin(AdminCommand::RemoveGroup { group: GroupId(1) }).digest();
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
