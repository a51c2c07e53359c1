//! Execution replicas (Fig 16).
//!
//! An execution replica validates and forwards client requests into the
//! request channel, applies the `Execute` stream arriving on the commit
//! channel to its local [`Application`], replies to clients of its own
//! group, answers weakly consistent reads directly, and participates in
//! execution checkpointing (with cross-group state transfer for catch-up).
//! It is always correct: a lying or silent replica is this one with a
//! [`crate::byzantine`] adversary rewriting what it sends.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::app::Application;
use crate::checkpoint::{Apply, CheckpointComponent, CpAction, Part, Snapshot};
use crate::config::{SpiderConfig, REQUEST_CAPACITY};
use crate::directory::Directory;
use crate::host;
use crate::messages::{ClientRequest, Execute, ExecutePayload, OrderedRequest, Reply, SpiderMsg};
use bytes::{BufMut, Bytes, BytesMut};
use spider_crypto::{Hashed, Keyring};
use spider_irmc::{Action, ReceiveResult, ReceiverEndpoint, Run, SenderEndpoint, TICK_INTERVAL};
use spider_sim::{req_id, Actor, Context, Timer, PHASE_DELIVER, PHASE_EXEC};
use spider_types::{ClientId, GroupId, NodeId, OpKind, Position, SeqNr, Sink, WireSize};
use std::collections::BTreeMap;

/// Timer tags (the checkpoint component's are `host`'s).
const TAG_TICK: u64 = 1;
const TAG_COMMIT_COLLECTOR: u64 = 2;

/// Cached reply state per client (Fig 16 `u[c]`).
#[derive(Debug, Clone)]
enum CachedReply {
    /// A real result for counter `tc`.
    Result { tc: u64, result: Bytes },
    /// A placeholder for a strong read executed at another group (§3.3 /
    /// Lemma A.35): the client must resubmit if it still needs the value.
    Placeholder { tc: u64 },
}

impl CachedReply {
    fn tc(&self) -> u64 {
        match self {
            CachedReply::Result { tc, .. } | CachedReply::Placeholder { tc } => *tc,
        }
    }
}

/// An execution replica actor.
pub struct ExecutionReplica<A: Application> {
    cfg: SpiderConfig,
    group: GroupId,
    directory: Directory,

    // --- Fig 16 protocol state ---
    sn: u64,
    forwarded: BTreeMap<ClientId, u64>,
    replies: BTreeMap<ClientId, CachedReply>,
    app: A,
    /// The application's parts of the checkpoint being encoded: one
    /// buffer, kept across checkpoints, drained into each snapshot.
    app_parts: Vec<Part>,
    req_sender: SenderEndpoint<Hashed<OrderedRequest>>,
    commit_recv: ReceiverEndpoint<Execute>,
    cp: CheckpointComponent,

    /// Executed request count (metrics).
    pub executed: u64,
}

impl<A: Application> ExecutionReplica<A> {
    /// Creates replica `me` of execution group `group`.
    pub fn new(cfg: SpiderConfig, group: GroupId, me: usize, directory: Directory, app: A) -> Self {
        cfg.validate();
        let keyring = Keyring::new(crate::keys::KEY_SEED);
        let (req_cfg, commit_cfg) = (cfg.request_channel(group), cfg.commit_channel(group));
        ExecutionReplica {
            group,
            directory,
            sn: 0,
            forwarded: BTreeMap::new(),
            replies: BTreeMap::new(),
            app,
            app_parts: Vec::new(),
            req_sender: SenderEndpoint::new(req_cfg, me, keyring.clone()),
            commit_recv: ReceiverEndpoint::new(commit_cfg, me, keyring.clone()),
            cp: CheckpointComponent::new(group, me, cfg.fe, keyring, cfg.cost),
            executed: 0,
            cfg,
        }
    }

    /// Current execution sequence number (last applied).
    pub fn sequence(&self) -> SeqNr {
        SeqNr(self.sn)
    }

    /// Digest of the application state (for cross-replica comparison in
    /// tests).
    pub fn app_digest(&self) -> spider_crypto::Digest {
        self.app.state_digest()
    }

    /// Read-only view of the application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The application itself, for a test that makes this replica's state
    /// differ from its group's.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// How many of this replica's checkpoint votes lost (its state
    /// differed from the one its group certified).
    pub fn lost_votes(&self) -> u64 {
        self.cp.lost_votes()
    }

    // ------------------------------------------------------------------
    // Client requests (Fig 16 L8-22)
    // ------------------------------------------------------------------

    fn on_client_request(&mut self, ctx: &mut Context<'_, SpiderMsg>, req: Hashed<ClientRequest>) {
        // MAC check on every request.
        ctx.charge(self.cfg.cost.hmac(req.wire_size()));
        // Request-channel windows move to `tc + 1` and are checked up to a
        // window length past their end, so a counter within two windows of
        // `u64::MAX` would overflow there; no correct client counts that far.
        if req.tc > u64::MAX - 2 * REQUEST_CAPACITY {
            return;
        }
        let c = req.client;

        if req.operation.kind == OpKind::WeakRead {
            // §3.3: answered locally, no ordering.
            ctx.charge(self.cfg.cost.app_execute());
            let result = self.app.execute_read(&req.operation.op);
            ctx.charge(self.cfg.cost.hmac(result.len()));
            self.reply_to(ctx, c, Reply { tc: req.tc, result, weak: true, resubmit: false });
            return;
        }

        let last = self.forwarded.get(&c).copied().unwrap_or(0);
        if req.tc <= last {
            // Old or retried request: serve from the reply cache.
            match self.replies.get(&c) {
                Some(CachedReply::Result { tc, result }) if *tc == req.tc => {
                    let result = result.clone();
                    ctx.charge(self.cfg.cost.hmac(result.len()));
                    self.reply_to(
                        ctx,
                        c,
                        Reply { tc: req.tc, result, weak: false, resubmit: false },
                    );
                }
                Some(CachedReply::Placeholder { tc }) if *tc == req.tc => {
                    // The read was skipped here (§A.7.9 remark): tell the
                    // client to resubmit under a fresh counter.
                    self.reply_to(
                        ctx,
                        c,
                        Reply { tc: req.tc, result: Bytes::new(), weak: false, resubmit: true },
                    );
                }
                _ => {} // Silent: still being processed.
            }
            return;
        }

        // First sight of this counter: verify the client signature.
        ctx.charge(self.cfg.cost.rsa_verify());
        self.forwarded.insert(c, req.tc);
        let (sc, pos, origin) = (c.0 as u64, Position(req.tc), self.group);
        self.request_channel(ctx, |ep, out| {
            ep.move_window(sc, pos, out);
            let ordered = Hashed::new(OrderedRequest { request: req, origin });
            ep.send_batch(sc, pos, Run::one(ordered), out);
        });
    }

    fn reply_to(&self, ctx: &mut Context<'_, SpiderMsg>, c: ClientId, reply: Reply) {
        if let Some(node) = self.directory.client_node(c) {
            // The Reply wire format has no client id, so the edge is
            // recorded explicitly from the addressee we resolved here.
            ctx.edge(node, "reply", req_id(c.0, reply.tc));
            ctx.send(node, SpiderMsg::Reply(reply));
        }
    }

    // ------------------------------------------------------------------
    // Commit channel -> application (Fig 16 L24-40)
    // ------------------------------------------------------------------

    fn drain_commits(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        let mut delivered = false;
        loop {
            match self.commit_recv.try_receive(0, Position(self.sn + 1)) {
                ReceiveResult::Ready(exec) => {
                    self.apply_execute(ctx, exec);
                    delivered = true;
                }
                ReceiveResult::TooOld(start) => {
                    // Fell behind: recover via checkpoint (Fig 16 L27-29).
                    let need = SeqNr(start.0.saturating_sub(1));
                    self.checkpoint(ctx, |cp, _, out| cp.fetch(need, out));
                    break;
                }
                ReceiveResult::Pending => break,
            }
        }
        // Receiver-side progress mark: deliveries advance even while the
        // ack window waits for the next checkpoint, so the watchdog's
        // stall clock follows delivery cadence, not checkpoint cadence.
        if delivered && ctx.obs_enabled() {
            ctx.health_mark("commit-channel", self.group.0 as u32);
        }
    }

    fn apply_execute(&mut self, ctx: &mut Context<'_, SpiderMsg>, exec: Execute) {
        debug_assert_eq!(exec.seq.0, self.sn + 1);
        self.sn += 1;
        ctx.charge(self.cfg.cost.msg_overhead());
        match &exec.payload {
            ExecutePayload::Full(ordered) => {
                let c = ordered.request.client;
                let tc = ordered.request.tc;
                let rid = req_id(c.0, tc);
                ctx.span_instant(rid, PHASE_DELIVER);
                // At-most-once (Fig 16 L34 / E-Validity II).
                let fresh = self.replies.get(&c).is_none_or(|r| r.tc() < tc);
                if fresh {
                    let result = ctx.span(rid, PHASE_EXEC, |ctx| {
                        ctx.charge_op("execution", "app_execute", self.cfg.cost.app_execute());
                        self.app.execute(&ordered.request.operation.op)
                    });
                    self.executed += 1;
                    self.replies.insert(c, CachedReply::Result { tc, result: result.clone() });
                    if ordered.origin == self.group {
                        ctx.charge(self.cfg.cost.hmac(result.len()));
                        self.reply_to(ctx, c, Reply { tc, result, weak: false, resubmit: false });
                    }
                }
            }
            &ExecutePayload::Placeholder { client, tc, .. } => {
                // A strong read executed at another group: remember the
                // counter so duplicates are skipped (Lemma A.35).
                let fresh = self.replies.get(&client).is_none_or(|r| r.tc() < tc);
                if fresh {
                    self.replies.insert(client, CachedReply::Placeholder { tc });
                }
            }
        }
        if self.sn.is_multiple_of(self.cfg.ke) {
            let (seq, snapshot) = (SeqNr(self.sn), self.encode_snapshot());
            self.checkpoint(ctx, |cp, _, out| cp.generate(seq, snapshot, out));
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints (Fig 16 L42-48, §3.4/§3.5)
    // ------------------------------------------------------------------

    /// Serializes `(sn, replies, app)` into the snapshot format: one
    /// fresh part for `(sn, replies, app length)`, then the application's
    /// own parts — the ones it did not touch since the last checkpoint are
    /// the previous snapshot's.
    fn encode_snapshot(&mut self) -> Snapshot {
        self.app.snapshot_parts(&mut self.app_parts);
        let app_len: usize = self.app_parts.iter().map(Part::len).sum();
        let replies_len: usize = self
            .replies
            .values()
            .map(|r| match r {
                CachedReply::Result { result, .. } => 4 + 1 + 8 + 4 + result.len(),
                CachedReply::Placeholder { .. } => 4 + 1 + 8,
            })
            .sum();
        let len = 8 + 4 + replies_len + 4;
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u64(self.sn);
        buf.put_u32(self.replies.len() as u32);
        // A `BTreeMap` iterates in `ClientId` order: the encoding's order.
        for (c, r) in &self.replies {
            buf.put_u32(c.0);
            match r {
                CachedReply::Result { tc, result } => {
                    buf.put_u8(0);
                    buf.put_u64(*tc);
                    buf.put_u32(result.len() as u32);
                    buf.put_slice(result);
                }
                CachedReply::Placeholder { tc } => {
                    buf.put_u8(1);
                    buf.put_u64(*tc);
                }
            }
        }
        buf.put_u32(app_len as u32);
        debug_assert_eq!(buf.len(), len, "the header was sized exactly");
        // Both iterators know their length: the list is collected in one
        // allocation, and the buffer keeps its capacity for the next one.
        Snapshot::new(std::iter::once(Part::new(buf.freeze())).chain(self.app_parts.drain(..)))
    }

    /// Decodes a snapshot [`Self::encode_snapshot`] made — the header part,
    /// then the application's — and installs it if the application accepts
    /// its parts; returns the snapshot's sequence number, which the caller
    /// adopts. Cached results are slices of the header part.
    fn restore_snapshot(&mut self, parts: &[Part]) -> Option<u64> {
        use bytes::Buf;
        let (header, app_parts) = parts.split_first()?;
        let header = header.to_bytes();
        let mut buf: &[u8] = &header;
        if buf.remaining() < 12 {
            return None;
        }
        let sn = buf.get_u64();
        let n = buf.get_u32() as usize;
        let mut replies = BTreeMap::new();
        for _ in 0..n {
            if buf.remaining() < 13 {
                return None;
            }
            let c = ClientId(buf.get_u32());
            match buf.get_u8() {
                0 => {
                    let tc = buf.get_u64();
                    if buf.remaining() < 4 {
                        return None;
                    }
                    let len = buf.get_u32() as usize;
                    if buf.remaining() < len {
                        return None;
                    }
                    let at = header.len() - buf.remaining();
                    let result = header.slice(at..at + len);
                    buf.advance(len);
                    replies.insert(c, CachedReply::Result { tc, result });
                }
                1 => {
                    let tc = buf.get_u64();
                    replies.insert(c, CachedReply::Placeholder { tc });
                }
                _ => return None,
            }
        }
        if buf.remaining() != 4 {
            return None;
        }
        let app_len = buf.get_u32() as usize;
        if app_parts.iter().map(Part::len).sum::<usize>() != app_len {
            return None;
        }
        if !self.app.restore(app_parts) {
            return None;
        }
        self.replies = replies;
        Some(sn)
    }

    fn on_stable_checkpoint(&mut self, ctx: &mut Context<'_, SpiderMsg>, seq: SeqNr, apply: Apply) {
        // Allow garbage collection of the commit channel (Fig 16 L44)
        // whether we are ahead or behind.
        self.commit_channel(ctx, |ep, out| ep.move_window(0, Position(seq.0 + 1), out));
        match apply {
            Apply::Keep => {}
            // A replica behind `seq` has this fetch out already: its next
            // `Execute` was too old (`drain_commits`). One whose vote lost
            // asks here (§3.4).
            Apply::Fetch => self.checkpoint(ctx, |cp, _, out| cp.fetch(seq, out)),
            // Past `seq` or not, the certified state replaces this one, and
            // what followed it replays from the commit channel.
            Apply::Install(snapshot) => {
                ctx.charge(self.cfg.cost.hmac(snapshot.len()));
                if let Some(sn) = self.restore_snapshot(snapshot.parts()) {
                    debug_assert_eq!(sn, seq.0);
                    self.sn = seq.0;
                }
            }
        }
        self.drain_commits(ctx);
    }

    // ------------------------------------------------------------------
    // Hosting the machines
    // ------------------------------------------------------------------

    /// Runs `call` on the request-channel sender, carrying out what it
    /// emits as it emits it; once it returns, the tick is kept pending
    /// while the endpoint wants one.
    fn request_channel(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        call: impl FnOnce(
            &mut SenderEndpoint<Hashed<OrderedRequest>>,
            &mut dyn Sink<Action<Hashed<OrderedRequest>>>,
        ),
    ) {
        let (peers, agreement) =
            (self.directory.group_replicas(self.group), self.directory.agreement());
        let wrap = |leg| SpiderMsg::RequestChannel { group: self.group, leg };
        call(&mut self.req_sender, &mut |a| {
            if let Some(Action::WindowMoved { .. } | Action::Unblocked { .. }) =
                host::channel_io(ctx, "req-channel", &peers, &agreement, wrap, a)
            {
                ctx.health_mark("req-channel", self.group.0 as u32);
            }
        });
        if ctx.obs_enabled() {
            ctx.health_pending("req-channel", self.group.0 as u32, self.req_sender.unacked_slots());
        }
        if self.req_sender.wants_tick() {
            ctx.arm_if_idle(TAG_TICK, TICK_INTERVAL);
        }
    }

    /// Runs `call` on the commit-channel receiver, carrying out what it
    /// emits as it emits it; once it returns, what it made ready is applied.
    fn commit_channel(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        call: impl FnOnce(&mut ReceiverEndpoint<Execute>, &mut dyn Sink<Action<Execute>>),
    ) {
        let agreement = self.directory.agreement();
        let wrap = |leg| SpiderMsg::CommitChannel { group: self.group, leg };
        let mut poll = false;
        call(&mut self.commit_recv, &mut |a| {
            let back = host::channel_io(ctx, "commit-channel", &agreement, &[], wrap, a);
            match back {
                Some(Action::Ready { .. } | Action::WindowMoved { .. }) => poll = true,
                Some(Action::SetTimer { token, delay }) => {
                    debug_assert_eq!(token, 0, "single commit subchannel");
                    ctx.arm(TAG_COMMIT_COLLECTOR, delay);
                }
                _ => {}
            }
        });
        if poll {
            self.drain_commits(ctx);
        }
    }

    /// Runs `call` on the checkpoint component; a checkpoint it makes
    /// stable is applied once its frames are out.
    fn checkpoint(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        call: impl FnOnce(&mut CheckpointComponent, &Directory, &mut dyn Sink<CpAction>),
    ) {
        if let Some((seq, apply)) = host::checkpoint_io(ctx, &self.directory, &mut self.cp, call) {
            self.on_stable_checkpoint(ctx, seq, apply);
        }
    }
}

impl<A: Application> Actor<SpiderMsg> for ExecutionReplica<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        if self.req_sender.wants_tick() {
            ctx.arm_if_idle(TAG_TICK, TICK_INTERVAL);
        }
        self.checkpoint(ctx, |cp, _, out| cp.start(out));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SpiderMsg>, from: NodeId, msg: SpiderMsg) {
        ctx.charge(self.cfg.cost.msg_overhead());
        match msg {
            SpiderMsg::Request(req) => self.on_client_request(ctx, req),
            // Shares from our own group (IRMC-SC) and window moves or
            // collector selections from the agreement replicas.
            SpiderMsg::RequestChannel { group, leg } if group == self.group => {
                let (peers, agreement) =
                    (self.directory.group_replicas(group), self.directory.agreement());
                self.request_channel(ctx, |ep, out| {
                    host::sender_frame(ep, &peers, &agreement, from, leg, out)
                });
            }
            SpiderMsg::CommitChannel { group, leg } if group == self.group => {
                let agreement = self.directory.agreement();
                self.commit_channel(ctx, |ep, out| {
                    host::receiver_frame(ep, &agreement, from, leg, out)
                });
            }
            SpiderMsg::Checkpoint { group, msg } => self.checkpoint(ctx, |cp, dir, out| {
                host::checkpoint_frame(cp, dir, from, group, msg, out)
            }),
            // Another group's channels.
            SpiderMsg::RequestChannel { .. }
            | SpiderMsg::CommitChannel { .. }
            | SpiderMsg::Reply(_)
            | SpiderMsg::Agreement(_)
            | SpiderMsg::Admin(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SpiderMsg>, timer: Timer) {
        match timer.tag {
            TAG_TICK => self.request_channel(ctx, |ep, out| ep.tick(out)),
            TAG_COMMIT_COLLECTOR => {
                // A `CarrierTimeout` is informational: the refetch traffic
                // that works around the slow or faulty carrier is already
                // out.
                self.commit_channel(ctx, |ep, out| {
                    let _ = ep.on_timer(0, out);
                });
            }
            tag => {
                if let Some(timer) = host::checkpoint_timer(tag) {
                    self.checkpoint(ctx, |cp, _, out| cp.on_timer(timer, out));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CounterApp;
    use crate::directory::{Directory, GroupInfo};

    fn replica() -> ExecutionReplica<CounterApp> {
        let dir = Directory::new();
        dir.register_group(
            GroupId(0),
            GroupInfo { replicas: vec![NodeId(0), NodeId(1), NodeId(2)], active: true },
        );
        ExecutionReplica::new(SpiderConfig::default(), GroupId(0), 0, dir, CounterApp::default())
    }

    #[test]
    fn execution_snapshot_roundtrip_preserves_replies_and_app() {
        let mut a = replica();
        a.sn = 16;
        a.app.execute(&Bytes::from_static(b"add:5"));
        a.replies
            .insert(ClientId(1), CachedReply::Result { tc: 4, result: Bytes::from_static(b"5") });
        a.replies.insert(ClientId(2), CachedReply::Placeholder { tc: 9 });
        let snap = a.encode_snapshot();
        assert!(snap.parts().len() >= 2, "a header part, then the application's");
        assert!(snap.is_intact());

        let mut b = replica();
        let sn = b.restore_snapshot(snap.parts()).expect("valid snapshot");
        assert_eq!(sn, 16);
        assert_eq!(b.app.value(), 5);
        match b.replies.get(&ClientId(1)) {
            Some(CachedReply::Result { tc, result }) => {
                assert_eq!(*tc, 4);
                assert_eq!(&result[..], b"5");
            }
            other => panic!("unexpected cache entry {other:?}"),
        }
        assert!(matches!(b.replies.get(&ClientId(2)), Some(CachedReply::Placeholder { tc: 9 })));
        // Digest equality: the roundtripped snapshot re-encodes
        // identically (CP-E-Equivalence A.23 at the encoding level). The
        // caller is responsible for adopting the sequence number.
        b.sn = sn;
        assert_eq!(a.encode_snapshot(), b.encode_snapshot());
    }

    /// The bytes execution replicas sign for a fixed state, at the value
    /// the encoding had when this test was written.
    #[test]
    fn execution_snapshot_bytes_are_pinned() {
        let mut a = replica();
        a.sn = 16;
        a.app.execute(&Bytes::from_static(b"add:5"));
        a.replies
            .insert(ClientId(1), CachedReply::Result { tc: 4, result: Bytes::from_static(b"5") });
        a.replies.insert(ClientId(2), CachedReply::Placeholder { tc: 9 });
        let snap = a.encode_snapshot();
        assert_eq!((snap.parts().len(), snap.len()), (2, 55));
        assert_eq!(format!("{}", snap.hash()), "3be48444b43a191e");
    }

    #[test]
    fn a_header_in_pieces_reads_as_one() {
        let mut a = replica();
        a.sn = 16;
        a.replies
            .insert(ClientId(1), CachedReply::Result { tc: 4, result: Bytes::from_static(b"5") });
        let snap = a.encode_snapshot();
        let (header, app) = snap.parts().split_first().expect("a header part");
        let bytes = header.to_bytes();
        let cut = Part::from_pieces([bytes.slice(..5), bytes.slice(5..)]);
        let mut b = replica();
        let parts: Vec<Part> = std::iter::once(cut).chain(app.iter().cloned()).collect();
        assert_eq!(b.restore_snapshot(&parts), Some(16));
        b.sn = 16;
        assert_eq!(b.encode_snapshot(), snap);
    }

    #[test]
    fn execution_snapshot_rejects_garbage() {
        let mut a = replica();
        assert!(a.restore_snapshot(&[Part::new(Bytes::from_static(&[0, 1, 2]))]).is_none());
        assert!(a.restore_snapshot(&[]).is_none());
        // sn 16 | 1 entry | client 7 | tag 0 | tc 3, cut before the result's length.
        let mut cut = Vec::new();
        cut.extend_from_slice(&16u64.to_be_bytes());
        cut.extend_from_slice(&1u32.to_be_bytes());
        cut.extend_from_slice(&7u32.to_be_bytes());
        cut.push(0);
        cut.extend_from_slice(&3u64.to_be_bytes());
        assert_eq!(cut.len(), 25);
        assert!(a.restore_snapshot(&[Part::new(Bytes::from(cut))]).is_none());
    }

    #[test]
    fn a_rejected_app_section_rejects_the_snapshot() {
        let mut a = replica();
        a.sn = 16;
        a.app.execute(&Bytes::from_static(b"add:5"));
        a.replies.insert(ClientId(1), CachedReply::Placeholder { tc: 3 });
        let snap = a.encode_snapshot();
        let (header, app) = snap.parts().split_first().expect("a header part");
        // The header's app length still matches, but the application makes
        // one part of eight bytes, not two of four.
        let bytes = app[0].to_bytes();
        let halves = [Part::new(bytes.slice(..4)), Part::new(bytes.slice(4..))];
        let mut b = replica();
        b.app.execute(&Bytes::from_static(b"add:2"));
        let cut = [header.clone(), halves[0].clone(), halves[1].clone()];
        assert!(b.restore_snapshot(&cut).is_none());
        assert_eq!(b.app.value(), 2, "the application kept its state");
        assert!(b.replies.is_empty(), "and so did the replica");
        assert!(b.restore_snapshot(snap.parts()).is_some());
    }

    #[test]
    fn cached_reply_counter_accessor() {
        assert_eq!(CachedReply::Result { tc: 3, result: Bytes::new() }.tc(), 3);
        assert_eq!(CachedReply::Placeholder { tc: 8 }.tc(), 8);
    }
}
