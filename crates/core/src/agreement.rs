//! Agreement replicas (Fig 17).
//!
//! An agreement replica pulls new requests out of the request channels
//! (one per execution group, one subchannel per client), feeds them into
//! the consensus black-box, assigns agreement sequence numbers to the
//! delivered total order, pushes `Execute`s into every commit channel
//! (skipping up to `z` trailing groups, §3.5), checkpoints `(t, hist)`
//! periodically, and applies ordered reconfiguration commands (§3.6).

use crate::checkpoint::{CheckpointComponent, CpAction, Snapshot};
use crate::config::SpiderConfig;
use crate::directory::Directory;
use crate::keys;
use crate::messages::{
    AdminCommand, ChannelLeg, CheckpointMsg, Execute, ExecutePayload, OrderItem, OrderedRequest,
    SpiderMsg, StateBlob,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use spider_consensus::{Input, Output, Pbft, PbftConfig, TimerToken};
use spider_crypto::{Hashed, Keyring};
use spider_irmc::{Action, ReceiveResult, ReceiverEndpoint, SenderEndpoint, Variant, OP_RECAST};
use spider_sim::{
    req_id, Actor, Context, Timer, TimerId, PHASE_BATCH, PHASE_COMMIT, PHASE_PROPOSE, PHASE_RECAST,
    PHASE_SHIP,
};
use spider_types::{ClientId, GroupId, NodeId, OpKind, Position, SeqNr, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Timer tags (consensus tokens are offset to avoid collisions).
const TAG_PBFT_BASE: u64 = 100;
const TAG_SC_TICK: u64 = 1;
const TAG_FETCH_RETRY: u64 = 3;
const TAG_CP_GOSSIP: u64 = 4;

/// Interval of the checkpoint-gossip heartbeat (§A.4.3).
const CP_GOSSIP_INTERVAL: SimTime = SimTime::from_millis(1_000);
/// Cadence of the commit-channel sender tick: the SC progress heartbeat
/// and the unit `spider_irmc::RC_RECAST_TICKS` counts in.
const COMMIT_TICK_INTERVAL: SimTime = SimTime::from_millis(20);

/// Decoded agreement snapshot: `(sn, t, hist)` as written by
/// `encode_snapshot`.
type DecodedSnapshot = (u64, BTreeMap<ClientId, u64>, VecDeque<(u64, OrderItem)>);

/// Fault behaviours injectable into an agreement replica (§3.7 tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgreementFault {
    /// Behaves correctly.
    #[default]
    None,
    /// Sends corrupted `Execute` messages into every commit channel. The
    /// IRMC's `fa + 1` matching-content rule must prevent delivery of the
    /// manipulated ordering (§3.7).
    CorruptExecutes,
}

/// The pair of IRMC endpoints an agreement replica maintains per
/// execution group (§3.2: one request channel + one commit channel).
struct GroupChannels {
    req_recv: ReceiverEndpoint<Hashed<OrderedRequest>>,
    commit_send: SenderEndpoint<Hashed<Execute>>,
}

/// An agreement replica actor.
pub struct AgreementReplica {
    cfg: SpiderConfig,
    me: usize,
    directory: Directory,
    keyring: Keyring,

    pbft: Pbft<OrderItem>,
    /// Last assigned agreement sequence number (Fig 17 `sn`).
    sn: u64,
    /// Upper bound of the agreement window (Fig 17 `win`).
    win_upper: u64,
    /// Counter value of the latest agreed request per client (`t`).
    t: BTreeMap<ClientId, u64>,
    /// Next expected request counter per client (`t+`).
    t_next: BTreeMap<ClientId, u64>,
    /// The last `commit_capacity` ordered items (Fig 17 `hist`).
    hist: VecDeque<(u64, OrderItem)>,
    channels: BTreeMap<GroupId, GroupChannels>,
    cp: CheckpointComponent,
    /// Items delivered by consensus awaiting sequence assignment (the
    /// sans-IO equivalent of blocking the deliver callback on `win` and
    /// the `ne - z` commit-channel rule).
    backlog: VecDeque<(u64, OrderItem, bool)>, // (pbft instance, item, last of instance)
    /// Delivered consensus instances and the highest agreement sequence
    /// number each produced (for black-box gc).
    instance_map: VecDeque<(u64, u64)>,
    timers: BTreeMap<u64, TimerId>,
    fetching: bool,
    fault: AgreementFault,
    /// Ordered request count (metrics).
    pub ordered: u64,
}

impl AgreementReplica {
    /// Creates agreement replica `me`. `initial_groups` are the execution
    /// groups active from the start.
    pub fn new(
        cfg: SpiderConfig,
        me: usize,
        directory: Directory,
        initial_groups: &[GroupId],
    ) -> Self {
        cfg.validate();
        let keyring = Keyring::new(cfg.key_seed);
        let pbft_cfg = cfg.tune_pbft(PbftConfig::new(cfg.fa));
        let mut me_new = AgreementReplica {
            me,
            directory,
            keyring: keyring.clone(),
            pbft: Pbft::new(pbft_cfg, me),
            sn: 0,
            win_upper: cfg.ag_win,
            t: BTreeMap::new(),
            t_next: BTreeMap::new(),
            hist: VecDeque::new(),
            channels: BTreeMap::new(),
            cp: CheckpointComponent::new(keys::AGREEMENT_GROUP, me, cfg.fa, keyring, cfg.cost),
            backlog: VecDeque::new(),
            instance_map: VecDeque::new(),
            timers: BTreeMap::new(),
            fetching: false,
            fault: AgreementFault::None,
            ordered: 0,
            cfg,
        };
        for g in initial_groups {
            me_new.create_channels(*g);
        }
        me_new
    }

    fn create_channels(&mut self, group: GroupId) {
        let (req_cfg, commit_cfg) =
            (self.cfg.request_channel(group), self.cfg.commit_channel(group));
        self.channels.insert(
            group,
            GroupChannels {
                req_recv: ReceiverEndpoint::new(req_cfg, self.me, self.keyring.clone()),
                commit_send: SenderEndpoint::new(commit_cfg, self.me, self.keyring.clone()),
            },
        );
    }

    /// Injects a fault behaviour (tests only; defaults to correct).
    pub fn set_fault(&mut self, fault: AgreementFault) {
        self.fault = fault;
    }

    /// Applies the configured Byzantine mutation to an outgoing Execute.
    fn maybe_corrupt(&self, exec: Hashed<Execute>) -> Hashed<Execute> {
        match self.fault {
            AgreementFault::None => exec,
            AgreementFault::CorruptExecutes => {
                // The only way to a `Hashed` value's fields: take it out
                // (dropping the digest it remembered), change it, and wrap
                // the result anew — at every level that held a digest.
                let Execute { seq, payload } = exec.into_inner();
                let payload = match payload {
                    ExecutePayload::Full(ordered) => {
                        let OrderedRequest { request, origin } = ordered.into_inner();
                        let mut request = request.into_inner();
                        request.operation.op = Bytes::from_static(b"add:666");
                        let ordered = OrderedRequest { request: request.into(), origin };
                        ExecutePayload::Full(ordered.into())
                    }
                    placeholder @ ExecutePayload::Placeholder { .. } => placeholder,
                };
                Execute { seq, payload }.into()
            }
        }
    }

    /// Last assigned agreement sequence number.
    pub fn sequence(&self) -> SeqNr {
        SeqNr(self.sn)
    }

    /// Current consensus view (for leader-location instrumentation).
    pub fn view(&self) -> spider_types::ViewNr {
        self.pbft.view()
    }

    // ------------------------------------------------------------------
    // Request intake (Fig 17 L13-22)
    // ------------------------------------------------------------------

    fn poll_client(&mut self, ctx: &mut Context<'_, SpiderMsg>, group: GroupId, client: ClientId) {
        let mut delivered = false;
        loop {
            let next = *self.t_next.entry(client).or_insert(1);
            let Some(ch) = self.channels.get_mut(&group) else {
                break;
            };
            match ch.req_recv.try_receive(client.0 as u64, Position(next)) {
                ReceiveResult::Ready(delivery) => {
                    // The channel guarantees fe+1 execution replicas vouch
                    // for the request; verify the client's own signature
                    // before ordering (A-Validity).
                    ctx.charge_op("agreement", "req_verify", self.cfg.cost.rsa_verify());
                    ctx.span_instant(req_id(client.0, next), PHASE_PROPOSE);
                    delivered = true;
                    self.t_next.insert(client, next + 1);
                    let mut out = Vec::new();
                    self.pbft.handle(
                        ctx.now(),
                        Input::Order(OrderItem::Request(delivery.payload)),
                        &mut out,
                    );
                    self.apply_pbft_outputs(ctx, out);
                }
                ReceiveResult::TooOld(p) => {
                    // The client has moved on (Fig 17 L16-18).
                    self.t_next.insert(client, p.0);
                }
                ReceiveResult::Pending => break,
            }
        }
        // Receiver-side progress mark (see `drain_commits`): deliveries,
        // not window moves, are what a healthy low-rate channel shows.
        if delivered && ctx.obs_enabled() {
            ctx.health_mark("req-channel", group.0 as u32);
        }
    }

    // ------------------------------------------------------------------
    // Consensus plumbing
    // ------------------------------------------------------------------

    fn apply_pbft_outputs(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        outputs: Vec<Output<OrderItem>>,
    ) {
        let agreement = self.directory.agreement();
        for o in outputs {
            match o {
                Output::Send { to, msg } => {
                    if let Some(node) = agreement.get(to) {
                        let msg = SpiderMsg::Agreement(msg);
                        ctx.edge_for(*node, &msg);
                        ctx.send(*node, msg);
                    }
                }
                Output::Deliver { seq, batch } => {
                    let n = batch.len();
                    for (i, item) in batch.into_iter().enumerate() {
                        if let OrderItem::Request(req) = &item {
                            let rid = req_id(req.request.client.0, req.request.tc);
                            ctx.span_instant(rid, PHASE_COMMIT);
                        }
                        self.backlog.push_back((seq.0, item, i + 1 == n));
                    }
                    if n == 0 {
                        // No-op instance: completes immediately at the
                        // current sequence number.
                        self.instance_map.push_back((seq.0, self.sn));
                    }
                }
                Output::SetTimer { token, delay } => {
                    self.arm_timer(ctx, TAG_PBFT_BASE + token.0, delay);
                }
                Output::CancelTimer { token } => {
                    if let Some(id) = self.timers.remove(&(TAG_PBFT_BASE + token.0)) {
                        ctx.cancel_timer(id);
                    }
                }
                Output::Charge(c) => ctx.charge_op("consensus", "handle", c),
                Output::ViewChanged { view, .. } => {
                    ctx.health_view(view.0);
                }
                Output::Skipped { .. } => {
                    // We missed decided instances: catch up via the
                    // agreement checkpoint (§3.4).
                    self.start_fetch(ctx);
                }
            }
        }
        self.process_backlog(ctx);
    }

    /// Assigns agreement sequence numbers to delivered items, respecting
    /// the agreement window and the `ne - z` commit-channel rule (§3.5).
    ///
    /// Consecutive ordered requests are collected into contiguous runs
    /// and flushed into every commit channel through **one**
    /// `send_batch` — one range certificate (one RSA signature) per run
    /// instead of one per slot. Runs cut at admin commands, checkpoint
    /// boundaries (`ka`), and — so boundaries re-synchronize across
    /// replicas — at absolute multiples of `commit_max_range`; those cut
    /// points derive from the agreed order alone and are identical on
    /// every correct replica, which keeps range boundaries aligned so
    /// IRMC-SC share collection (and the RC dedup vouch quorum) combines
    /// across the group. A run can additionally cut at replica-local
    /// back-pressure or backlog exhaustion, which may transiently
    /// misalign boundaries between replicas; the grid cut bounds the
    /// divergence to one grid cell, and the IRMCs recover the stretch
    /// that is already out — IRMC-SC by per-slot share fallback
    /// (`SenderEndpoint::tick`), RC dedup by refetching each voucher's
    /// own copy and converging on per-slot quorums receiver-side.
    fn process_backlog(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        loop {
            let mut run: Vec<(u64, Hashed<OrderedRequest>, OrderItem)> = Vec::new();
            let mut completed: Vec<(u64, u64)> = Vec::new();
            let max_run = self.cfg.commit_max_range.max(1);
            let mut stalled = false;
            let mut applied_admin = false;
            while run.len() < max_run {
                let Some((instance, item, last)) = self.backlog.front().cloned() else {
                    break;
                };
                match &item {
                    OrderItem::Admin(cmd) => {
                        if !run.is_empty() {
                            break; // Flush the run before reconfiguring.
                        }
                        let cmd = cmd.clone();
                        self.backlog.pop_front();
                        self.apply_admin(ctx, cmd);
                        applied_admin = true;
                        if last {
                            self.instance_map.push_back((instance, self.sn));
                        }
                    }
                    OrderItem::Request(req) => {
                        let s = self.sn + run.len() as u64 + 1;
                        if s > self.win_upper {
                            stalled = true; // Fig 17 L27: wait for a checkpoint.
                            break;
                        }
                        // §3.5: at least ne - z commit channels must accept
                        // the Execute at position s without blocking.
                        let groups = self.directory.active_groups();
                        let ne = groups.len();
                        if ne > 0 {
                            let sendable = groups
                                .iter()
                                .filter(|g| {
                                    self.channels.get(g).is_some_and(|ch| {
                                        !ch.commit_send.window(0).is_above(Position(s))
                                    })
                                })
                                .count();
                            if sendable + self.cfg.z < ne {
                                stalled = true; // Resume on window movement.
                                break;
                            }
                        }
                        let req = req.clone();
                        self.backlog.pop_front();
                        if last {
                            completed.push((instance, s));
                        }
                        let at_checkpoint = s.is_multiple_of(self.cfg.ka);
                        // Grid cut: never straddle a multiple of the range
                        // cap, so replicas whose runs diverged at local
                        // back-pressure re-align at the next grid line.
                        let at_grid = s.is_multiple_of(max_run as u64);
                        run.push((s, req, item));
                        if at_checkpoint || at_grid {
                            break;
                        }
                    }
                }
            }
            if run.is_empty() {
                if applied_admin && !stalled {
                    continue; // Reconfigured; rescan the backlog.
                }
                return;
            }
            self.assign_and_forward_run(ctx, run);
            self.instance_map.extend(completed);
            if stalled {
                return;
            }
        }
    }

    /// Assigns sequence numbers to a contiguous run of ordered requests
    /// and flushes it into every commit channel as one range.
    fn assign_and_forward_run(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        run: Vec<(u64, Hashed<OrderedRequest>, OrderItem)>,
    ) {
        let Some(first) = run.first().map(|r| r.0) else {
            return;
        };
        ctx.span_enter(0, PHASE_BATCH);
        ctx.metric_hist("commit_run_len", run.len() as u64);
        for (s, req, item) in &run {
            self.sn = *s;
            self.ordered += 1;
            ctx.metric_inc("ordered", 1);
            let c = req.request.client;
            let tc = req.request.tc;
            self.t.insert(c, tc);
            let entry = self.t_next.entry(c).or_insert(1);
            *entry = (*entry).max(tc + 1);
            self.hist.push_back((*s, item.clone()));
        }
        while self.hist.len() as u64 > self.cfg.commit_capacity {
            self.hist.pop_front();
        }
        for group in self.directory.active_groups() {
            let execs: Vec<Hashed<Execute>> = run
                .iter()
                .map(|(s, req, _)| self.maybe_corrupt(execute_for_group(*s, req, group)))
                .collect();
            let mut actions = Vec::new();
            if let Some(ch) = self.channels.get_mut(&group) {
                // analyzer: allow(charge-coverage, "the IRMC endpoint emits Action::Charge; apply_commit_actions applies it")
                // analyzer: allow(edge-pairing, "apply_commit_actions records the edges at the actual transmit sites")
                ch.commit_send.send_batch(0, Position(first), execs, &mut actions);
            }
            self.apply_commit_actions(ctx, group, actions);
        }
        for (_, req, _) in &run {
            ctx.span_instant(req_id(req.request.client.0, req.request.tc), PHASE_SHIP);
        }
        ctx.span_exit(0, PHASE_BATCH);
        if self.sn.is_multiple_of(self.cfg.ka) {
            let snapshot = self.encode_snapshot();
            let mut actions = Vec::new();
            self.cp.generate(SeqNr(self.sn), snapshot, &mut actions);
            self.apply_cp_actions(ctx, actions);
        }
    }

    /// Replays already-ordered history into one group's commit channel in
    /// contiguous `send_batch` chunks (AddGroup bootstrap and post-restore
    /// catch-up).
    fn replay_execs(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        group: GroupId,
        items: &[(u64, OrderItem)],
    ) {
        let max_run = self.cfg.commit_max_range.max(1);
        let mut i = 0;
        while i < items.len() {
            let Some((first, OrderItem::Request(req0))) = items.get(i) else {
                i += 1;
                continue;
            };
            let mut execs = vec![self.maybe_corrupt(execute_for_group(*first, req0, group))];
            let mut j = i + 1;
            while j < items.len() && execs.len() < max_run {
                let Some((s, OrderItem::Request(req))) = items.get(j) else { break };
                if *s != first + execs.len() as u64 {
                    break;
                }
                execs.push(self.maybe_corrupt(execute_for_group(*s, req, group)));
                j += 1;
            }
            let first = *first;
            let mut actions = Vec::new();
            if let Some(ch) = self.channels.get_mut(&group) {
                // analyzer: allow(charge-coverage, "the IRMC endpoint emits Action::Charge; apply_commit_actions applies it")
                // analyzer: allow(edge-pairing, "apply_commit_actions records the edges at the actual transmit sites")
                ch.commit_send.send_batch(0, Position(first), execs, &mut actions);
            }
            self.apply_commit_actions(ctx, group, actions);
            i = j;
        }
    }

    fn apply_admin(&mut self, ctx: &mut Context<'_, SpiderMsg>, cmd: AdminCommand) {
        match cmd {
            AdminCommand::AddGroup { group } => {
                if self.channels.contains_key(&group) {
                    return;
                }
                self.create_channels(group);
                self.directory.activate_group(group);
                // The new group starts at sequence 0. Move its commit
                // window to the start of `hist` and replay the recent
                // Executes; everything older arrives via an execution
                // checkpoint fetched from another group (§3.6).
                let start = self.hist.front().map(|(s, _)| *s).unwrap_or(self.sn + 1);
                let mut actions = Vec::new();
                if let Some(ch) = self.channels.get_mut(&group) {
                    ch.commit_send.move_window(0, Position(start), &mut actions);
                }
                self.apply_commit_actions(ctx, group, actions);
                // Every replica replays the identical `hist` at this point
                // of the total order, so the replay ranges align too.
                let items: Vec<(u64, OrderItem)> = self.hist.iter().cloned().collect();
                self.replay_execs(ctx, group, &items);
            }
            AdminCommand::RemoveGroup { group } => {
                self.channels.remove(&group);
                self.directory.deactivate_group(group);
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints (Fig 17 L39-57)
    // ------------------------------------------------------------------

    /// Serializes `(sn, t, hist)`. `hist` is bounded by the commit-channel
    /// capacity, so the snapshot stays small and is one part.
    fn encode_snapshot(&self) -> Snapshot {
        let mut buf = BytesMut::new();
        buf.put_u64(self.sn);
        buf.put_u32(self.t.len() as u32);
        let mut t: Vec<(&ClientId, &u64)> = self.t.iter().collect();
        t.sort_by_key(|(c, _)| c.0);
        for (c, tc) in t {
            buf.put_u32(c.0);
            buf.put_u64(*tc);
        }
        buf.put_u32(self.hist.len() as u32);
        for (s, item) in &self.hist {
            buf.put_u64(*s);
            encode_order_item(&mut buf, item);
        }
        Snapshot::single(buf.freeze())
    }

    fn restore_snapshot(&mut self, bytes: &[u8]) -> Option<DecodedSnapshot> {
        let mut buf = bytes;
        if buf.remaining() < 12 {
            return None;
        }
        let sn = buf.get_u64();
        let n = buf.get_u32() as usize;
        let mut t = BTreeMap::new();
        for _ in 0..n {
            if buf.remaining() < 12 {
                return None;
            }
            let c = ClientId(buf.get_u32());
            t.insert(c, buf.get_u64());
        }
        if buf.remaining() < 4 {
            return None;
        }
        let h = buf.get_u32() as usize;
        let mut hist = VecDeque::new();
        for _ in 0..h {
            if buf.remaining() < 8 {
                return None;
            }
            let s = buf.get_u64();
            let item = decode_order_item(&mut buf)?;
            hist.push_back((s, item));
        }
        Some((sn, t, hist))
    }

    fn start_fetch(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        if self.fetching {
            return;
        }
        self.fetching = true;
        let mut actions = Vec::new();
        self.cp.fetch(SeqNr(self.sn + 1), &mut actions);
        self.apply_cp_actions(ctx, actions);
        self.arm_timer(ctx, TAG_FETCH_RETRY, SimTime::from_millis(500));
    }

    fn on_stable_checkpoint(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        seq: SeqNr,
        state: Option<Snapshot>,
    ) {
        // Fig 17 L44-45: move commit windows + collect consensus garbage.
        let hist_len = self.hist.len() as u64;
        let window_start = seq.0.saturating_sub(hist_len).saturating_add(1);
        let groups: Vec<GroupId> = self.channels.keys().copied().collect();
        for g in groups {
            let mut actions = Vec::new();
            if let Some(ch) = self.channels.get_mut(&g) {
                ch.commit_send.move_window(0, Position(window_start), &mut actions);
            }
            self.apply_commit_actions(ctx, g, actions);
        }
        // Consensus gc: forget instances whose requests are all covered.
        let mut gc_before = None;
        while let Some((instance, last_seq)) = self.instance_map.front().copied() {
            if last_seq <= seq.0 {
                gc_before = Some(instance + 1);
                self.instance_map.pop_front();
            } else {
                break;
            }
        }
        if let Some(before) = gc_before {
            self.pbft.gc(SeqNr(before));
        }

        if seq.0 > self.sn {
            if state.is_none() {
                // A stable checkpoint exists ahead of us but we lack the
                // snapshot: fetch it (Fig 17 L47 path).
                self.start_fetch(ctx);
            }
            if let Some(snapshot) = state {
                ctx.charge(self.cfg.cost.hmac(snapshot.len()));
                if let Some((sn, t, hist)) = self.restore_snapshot(&snapshot.concat()) {
                    debug_assert_eq!(sn, seq.0);
                    // Fig 17 L47-55: apply and replay the skipped tail.
                    let old_sn = self.sn;
                    self.sn = sn;
                    for (c, tc) in &t {
                        let e = self.t_next.entry(*c).or_insert(1);
                        *e = (*e).max(tc + 1);
                    }
                    self.t = t;
                    self.hist = hist;
                    let items: Vec<(u64, OrderItem)> =
                        self.hist.iter().filter(|(s, _)| *s > old_sn).cloned().collect();
                    // The replayed tail may chunk differently than the
                    // ranges the healthy replicas originally sent; the
                    // IRMC's per-slot fallback covers that (and receivers
                    // usually hold these certificates already).
                    for group in self.directory.active_groups() {
                        self.replay_execs(ctx, group, &items);
                    }
                    self.fetching = false;
                }
            }
        }
        // Fig 17 L57: slide the agreement window.
        self.win_upper = self.win_upper.max(seq.0 + self.cfg.ag_win);
        self.process_backlog(ctx);
    }

    // ------------------------------------------------------------------
    // Action plumbing
    // ------------------------------------------------------------------

    fn apply_request_channel_actions(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        group: GroupId,
        actions: Vec<Action<Hashed<OrderedRequest>>>,
    ) {
        let exec_nodes = self.directory.group_replicas(group);
        let mut to_poll: Vec<ClientId> = Vec::new();
        for a in actions {
            match a {
                Action::ToSender { to, msg } => {
                    if let Some(node) = exec_nodes.get(to) {
                        let msg =
                            SpiderMsg::RequestChannel { group, leg: ChannelLeg::ToSender(msg) };
                        // Window moves/acks carry no request payload, so
                        // this records no edges; kept for uniform pairing.
                        ctx.edge_for(*node, &msg);
                        ctx.send(*node, msg);
                    }
                }
                Action::Ready { sc, .. } | Action::WindowMoved { sc, .. } => {
                    let c = ClientId(sc as u32);
                    if !to_poll.contains(&c) {
                        to_poll.push(c);
                    }
                }
                Action::Charge(c, op) => ctx.charge_op("req-channel", op, c),
                Action::SetTimer { .. } => {
                    // Request channels use one collector timer per client
                    // subchannel; with RC as default this is unused. SC
                    // request channels rely on retries instead.
                }
                _ => {}
            }
        }
        for c in to_poll {
            self.poll_client(ctx, group, c);
        }
    }

    fn apply_commit_actions(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        group: GroupId,
        actions: Vec<Action<Hashed<Execute>>>,
    ) {
        let exec_nodes = self.directory.group_replicas(group);
        let agreement = self.directory.agreement();
        let mut window_moved = false;
        for a in actions {
            match a {
                Action::ToReceiver { to, msg } => {
                    if let Some(node) = exec_nodes.get(to) {
                        let msg =
                            SpiderMsg::CommitChannel { group, leg: ChannelLeg::ToReceiver(msg) };
                        ctx.edge_for(*node, &msg);
                        ctx.send(*node, msg);
                    }
                }
                Action::ToPeerSender { to, msg } => {
                    if let Some(node) = agreement.get(to) {
                        let msg = SpiderMsg::CommitChannel { group, leg: ChannelLeg::Peer(msg) };
                        ctx.edge_for(*node, &msg);
                        ctx.send(*node, msg);
                    }
                }
                Action::WindowMoved { .. } | Action::Unblocked { .. } => {
                    window_moved = true;
                    ctx.health_mark("commit-channel", group.0 as u32);
                }
                Action::Charge(c, op) => {
                    if op == OP_RECAST {
                        // Liveness milestone: the disaster smoke gate
                        // checks a recast appears after a partition heal.
                        ctx.span_instant(0, PHASE_RECAST);
                    }
                    ctx.charge_op("commit-channel", op, c);
                }
                _ => {}
            }
        }
        if ctx.obs_enabled() {
            if let Some(ch) = self.channels.get(&group) {
                ctx.health_pending(
                    "commit-channel",
                    group.0 as u32,
                    ch.commit_send.unacked_slots(),
                );
            }
        }
        if window_moved {
            self.process_backlog(ctx);
        }
        // RC commit channels have no standing heartbeat: arm the recast
        // tick lazily while any channel holds undelivered content, so a
        // partition that swallowed the one-shot casts cannot wedge the
        // system, yet idle runs still quiesce.
        if self.cfg.commit_mode.variant() != Variant::SenderCollect
            && self.channels.values().any(|ch| ch.commit_send.has_unacked())
        {
            self.ensure_timer(ctx, TAG_SC_TICK, COMMIT_TICK_INTERVAL);
        }
    }

    fn apply_cp_actions(&mut self, ctx: &mut Context<'_, SpiderMsg>, actions: Vec<CpAction>) {
        let agreement = self.directory.agreement();
        let mut stable = Vec::new();
        for a in actions {
            match a {
                CpAction::ToGroup(msg) => {
                    for (i, node) in agreement.iter().enumerate() {
                        if i != self.me {
                            // analyzer: allow(edge-pairing, "checkpoint gossip and state transfer carry no per-request payload; request latency never blocks on them")
                            ctx.send(
                                *node,
                                SpiderMsg::Checkpoint {
                                    group: keys::AGREEMENT_GROUP,
                                    msg: msg.clone(),
                                    state: None,
                                },
                            );
                        }
                    }
                }
                CpAction::ToPeer { idx, msg, state, .. } => {
                    if let Some(node) = agreement.get(idx) {
                        let blob = state.map(|snapshot| StateBlob {
                            seq: match msg {
                                CheckpointMsg::FetchResponse { seq, .. } => seq,
                                _ => SeqNr(0),
                            },
                            snapshot,
                        });
                        ctx.send(
                            *node,
                            SpiderMsg::Checkpoint {
                                group: keys::AGREEMENT_GROUP,
                                msg,
                                state: blob,
                            },
                        );
                    }
                }
                CpAction::Stable { seq, state } => stable.push((seq, state)),
                CpAction::Charge(c, op) => ctx.charge_op("checkpoint", op, c),
            }
        }
        for (seq, state) in stable {
            self.on_stable_checkpoint(ctx, seq, state);
        }
    }

    fn arm_timer(&mut self, ctx: &mut Context<'_, SpiderMsg>, tag: u64, delay: SimTime) {
        if let Some(old) = self.timers.remove(&tag) {
            ctx.cancel_timer(old);
        }
        let id = ctx.set_timer(delay, tag);
        self.timers.insert(tag, id);
    }

    /// Arms `tag` only if it is not already pending (unlike [`Self::arm_timer`],
    /// which reschedules).
    fn ensure_timer(&mut self, ctx: &mut Context<'_, SpiderMsg>, tag: u64, delay: SimTime) {
        self.timers.entry(tag).or_insert_with(|| ctx.set_timer(delay, tag));
    }

    fn agreement_index(&self, node: NodeId) -> Option<usize> {
        self.directory.agreement().iter().position(|n| *n == node)
    }

    fn exec_index(&self, group: GroupId, node: NodeId) -> Option<usize> {
        self.directory.group_replicas(group).iter().position(|n| *n == node)
    }
}

/// Builds the per-group `Execute`: full request for writes and for the
/// read's target group, placeholder elsewhere (§3.3).
fn execute_for_group(s: u64, req: &Hashed<OrderedRequest>, group: GroupId) -> Hashed<Execute> {
    let payload = match req.request.operation.kind {
        OpKind::Write => ExecutePayload::Full(req.clone()),
        OpKind::StrongRead if req.origin == group => ExecutePayload::Full(req.clone()),
        OpKind::StrongRead | OpKind::WeakRead => ExecutePayload::Placeholder {
            client: req.request.client,
            tc: req.request.tc,
            target: req.origin,
        },
    };
    Execute { seq: SeqNr(s), payload }.into()
}

fn encode_order_item(buf: &mut BytesMut, item: &OrderItem) {
    match item {
        OrderItem::Request(req) => {
            buf.put_u8(0);
            buf.put_u16(req.origin.0);
            buf.put_u32(req.request.client.0);
            buf.put_u64(req.request.tc);
            buf.put_u8(match req.request.operation.kind {
                OpKind::Write => 0,
                OpKind::StrongRead => 1,
                OpKind::WeakRead => 2,
            });
            buf.put_u32(req.request.operation.op.len() as u32);
            buf.put_slice(&req.request.operation.op);
        }
        OrderItem::Admin(AdminCommand::AddGroup { group }) => {
            buf.put_u8(1);
            buf.put_u16(group.0);
        }
        OrderItem::Admin(AdminCommand::RemoveGroup { group }) => {
            buf.put_u8(2);
            buf.put_u16(group.0);
        }
    }
}

fn decode_order_item(buf: &mut &[u8]) -> Option<OrderItem> {
    use crate::messages::{ClientRequest, Operation};
    if buf.remaining() < 1 {
        return None;
    }
    match buf.get_u8() {
        0 => {
            if buf.remaining() < 19 {
                return None;
            }
            let origin = GroupId(buf.get_u16());
            let client = ClientId(buf.get_u32());
            let tc = buf.get_u64();
            let kind = match buf.get_u8() {
                0 => OpKind::Write,
                1 => OpKind::StrongRead,
                _ => OpKind::WeakRead,
            };
            let len = buf.get_u32() as usize;
            if buf.remaining() < len {
                return None;
            }
            let op = Bytes::copy_from_slice(buf.get(..len)?);
            buf.advance(len);
            let request = ClientRequest { client, tc, operation: Operation { op, kind } };
            Some(OrderItem::Request(OrderedRequest { request: request.into(), origin }.into()))
        }
        1 => {
            if buf.remaining() < 2 {
                return None;
            }
            Some(OrderItem::Admin(AdminCommand::AddGroup { group: GroupId(buf.get_u16()) }))
        }
        2 => {
            if buf.remaining() < 2 {
                return None;
            }
            Some(OrderItem::Admin(AdminCommand::RemoveGroup { group: GroupId(buf.get_u16()) }))
        }
        _ => None,
    }
}

impl Actor<SpiderMsg> for AgreementReplica {
    fn on_start(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        // The tick drives SC progress announcements.
        if self.cfg.commit_mode.variant() == Variant::SenderCollect {
            self.arm_timer(ctx, TAG_SC_TICK, COMMIT_TICK_INTERVAL);
        }
        self.arm_timer(ctx, TAG_CP_GOSSIP, CP_GOSSIP_INTERVAL);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SpiderMsg>, from: NodeId, msg: SpiderMsg) {
        ctx.charge(self.cfg.cost.msg_overhead());
        match msg {
            SpiderMsg::Agreement(m) => {
                let Some(idx) = self.agreement_index(from) else {
                    return;
                };
                let mut out = Vec::new();
                self.pbft.handle(ctx.now(), Input::Message { from: idx, msg: m }, &mut out);
                self.apply_pbft_outputs(ctx, out);
            }
            SpiderMsg::RequestChannel { group, leg } => match leg {
                ChannelLeg::ToReceiver(m) => {
                    let Some(idx) = self.exec_index(group, from) else {
                        return;
                    };
                    let mut actions = Vec::new();
                    if let Some(ch) = self.channels.get_mut(&group) {
                        let _ = ch.req_recv.on_sender_message(idx, m, &mut actions);
                    }
                    self.apply_request_channel_actions(ctx, group, actions);
                }
                ChannelLeg::ToSender(_) | ChannelLeg::Peer(_) => {}
            },
            SpiderMsg::CommitChannel { group, leg } => match leg {
                ChannelLeg::ToSender(m) => {
                    let Some(idx) = self.exec_index(group, from) else {
                        return;
                    };
                    let mut actions = Vec::new();
                    if let Some(ch) = self.channels.get_mut(&group) {
                        let _ = ch.commit_send.on_receiver_message(idx, m, &mut actions);
                    }
                    self.apply_commit_actions(ctx, group, actions);
                }
                ChannelLeg::Peer(m) => {
                    let Some(idx) = self.agreement_index(from) else {
                        return;
                    };
                    let mut actions = Vec::new();
                    if let Some(ch) = self.channels.get_mut(&group) {
                        let _ = ch.commit_send.on_peer_message(idx, m, &mut actions);
                    }
                    self.apply_commit_actions(ctx, group, actions);
                }
                ChannelLeg::ToReceiver(_) => {}
            },
            SpiderMsg::Admin(cmd) => {
                // Reconfiguration commands are signed by the privileged
                // admin client and ordered like requests (§3.6).
                ctx.charge(self.cfg.cost.rsa_verify());
                let mut out = Vec::new();
                self.pbft.handle(ctx.now(), Input::Order(OrderItem::Admin(cmd)), &mut out);
                self.apply_pbft_outputs(ctx, out);
            }
            SpiderMsg::Checkpoint { group, msg, state } => {
                if group != keys::AGREEMENT_GROUP {
                    return;
                }
                let Some(idx) = self.agreement_index(from) else {
                    return;
                };
                let mut actions = Vec::new();
                match msg {
                    CheckpointMsg::Announce { seq, state_hash, sig } => {
                        self.cp.on_announce(idx, seq, state_hash, sig, &mut actions);
                    }
                    CheckpointMsg::FetchRequest { seq } => {
                        self.cp.on_fetch_request(keys::AGREEMENT_GROUP, idx, seq, &mut actions);
                    }
                    CheckpointMsg::FetchResponse { seq, state_hash, cert, .. } => {
                        let Some(blob) = state else { return };
                        let provider_keys = keys::agreement_keys(self.cfg.agreement_size());
                        self.cp.on_fetch_response(
                            keys::AGREEMENT_GROUP,
                            &provider_keys,
                            seq,
                            state_hash,
                            cert,
                            blob.snapshot,
                            &mut actions,
                        );
                    }
                }
                self.apply_cp_actions(ctx, actions);
            }
            SpiderMsg::Request(_) | SpiderMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SpiderMsg>, timer: Timer) {
        self.timers.remove(&timer.tag);
        match timer.tag {
            TAG_SC_TICK => {
                let groups: Vec<GroupId> = self.channels.keys().copied().collect();
                for g in groups {
                    let mut actions = Vec::new();
                    if let Some(ch) = self.channels.get_mut(&g) {
                        ch.commit_send.tick(&mut actions);
                    }
                    self.apply_commit_actions(ctx, g, actions);
                }
                // SC channels keep a standing heartbeat; RC keeps ticking
                // only while content is undelivered (recast liveness), so
                // idle runs quiesce.
                if self.cfg.commit_mode.variant() == Variant::SenderCollect
                    || self.channels.values().any(|ch| ch.commit_send.has_unacked())
                {
                    self.arm_timer(ctx, TAG_SC_TICK, COMMIT_TICK_INTERVAL);
                }
            }
            TAG_FETCH_RETRY if self.fetching => {
                self.fetching = false;
                self.start_fetch(ctx);
            }
            TAG_CP_GOSSIP => {
                let mut actions = Vec::new();
                self.cp.gossip(&mut actions);
                self.apply_cp_actions(ctx, actions);
                self.arm_timer(ctx, TAG_CP_GOSSIP, CP_GOSSIP_INTERVAL);
            }
            tag if tag >= TAG_PBFT_BASE => {
                let mut out = Vec::new();
                self.pbft.handle(
                    ctx.now(),
                    Input::Timer(TimerToken(tag - TAG_PBFT_BASE)),
                    &mut out,
                );
                self.apply_pbft_outputs(ctx, out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{ClientRequest, Operation};
    use bytes::Bytes;

    fn request(client: u32, tc: u64, kind: OpKind) -> Hashed<OrderedRequest> {
        Hashed::new(OrderedRequest {
            request: ClientRequest {
                client: ClientId(client),
                tc,
                operation: Operation { op: Bytes::from_static(b"put k v"), kind },
            }
            .into(),
            origin: GroupId(2),
        })
    }

    #[test]
    fn execute_for_group_full_for_writes_everywhere() {
        let req = request(1, 5, OpKind::Write);
        for g in [GroupId(0), GroupId(2), GroupId(7)] {
            let exec = execute_for_group(9, &req, g);
            assert_eq!(exec.seq, SeqNr(9));
            assert!(matches!(exec.payload, ExecutePayload::Full(_)));
        }
    }

    #[test]
    fn execute_for_group_placeholders_for_remote_strong_reads() {
        let req = request(1, 5, OpKind::StrongRead);
        // Target group gets the full request…
        let own = execute_for_group(9, &req, GroupId(2));
        assert!(matches!(own.payload, ExecutePayload::Full(_)));
        // …every other group gets the small placeholder (§3.3).
        let other = execute_for_group(9, &req, GroupId(0));
        match other.payload {
            ExecutePayload::Placeholder { client, tc, target } => {
                assert_eq!(client, ClientId(1));
                assert_eq!(tc, 5);
                assert_eq!(target, GroupId(2));
            }
            _ => panic!("expected placeholder"),
        }
        assert!(
            spider_types::WireSize::wire_size(&other) < spider_types::WireSize::wire_size(&own)
        );
    }

    #[test]
    fn corrupted_execute_does_not_keep_the_honest_digest() {
        use spider_crypto::Digestible;
        let dir = crate::directory::Directory::new();
        let mut a = AgreementReplica::new(SpiderConfig::default(), 0, dir, &[]);
        let honest = execute_for_group(9, &request(1, 5, OpKind::Write), GroupId(0));
        // Remembered at every level: execute, ordered request, request.
        let honest_digest = honest.digest();
        assert_eq!(a.maybe_corrupt(honest.clone()).digest(), honest_digest);

        a.set_fault(AgreementFault::CorruptExecutes);
        let bad = a.maybe_corrupt(honest);
        let ExecutePayload::Full(ordered) = &bad.payload else { panic!("a write stays full") };
        assert_eq!(&ordered.request.operation.op[..], b"add:666");
        assert_ne!(bad.digest(), honest_digest, "no stale digest vouches for the new content");
        // It is the digest of that content built from nothing.
        let rebuilt = Execute {
            seq: bad.seq,
            payload: ExecutePayload::Full(Hashed::new(OrderedRequest {
                request: Hashed::new(ClientRequest::clone(&ordered.request)),
                origin: ordered.origin,
            })),
        };
        assert_eq!(bad.digest(), rebuilt.digest());
    }

    #[test]
    fn order_item_codec_roundtrip() {
        let items = vec![
            OrderItem::Request(request(3, 17, OpKind::Write)),
            OrderItem::Request(request(4, 1, OpKind::StrongRead)),
            OrderItem::Admin(AdminCommand::AddGroup { group: GroupId(9) }),
            OrderItem::Admin(AdminCommand::RemoveGroup { group: GroupId(2) }),
        ];
        for item in items {
            let mut buf = BytesMut::new();
            encode_order_item(&mut buf, &item);
            let bytes = buf.freeze();
            let mut slice: &[u8] = &bytes;
            let decoded = decode_order_item(&mut slice).expect("decodes");
            assert_eq!(decoded, item);
            assert!(slice.is_empty(), "consumed exactly");
        }
    }

    #[test]
    fn order_item_decode_rejects_truncation() {
        let item = OrderItem::Request(request(3, 17, OpKind::Write));
        let mut buf = BytesMut::new();
        encode_order_item(&mut buf, &item);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut slice: &[u8] = &bytes[..cut];
            assert!(
                decode_order_item(&mut slice).is_none() || cut == bytes.len(),
                "truncated decode must fail (cut {cut})"
            );
        }
    }

    #[test]
    fn agreement_snapshot_roundtrip() {
        let dir = crate::directory::Directory::new();
        let mut a = AgreementReplica::new(SpiderConfig::default(), 0, dir.clone(), &[]);
        a.sn = 42;
        a.t.insert(ClientId(1), 7);
        a.t.insert(ClientId(9), 3);
        a.hist.push_back((41, OrderItem::Request(request(1, 6, OpKind::Write))));
        a.hist.push_back((42, OrderItem::Request(request(9, 3, OpKind::Write))));
        let snap = a.encode_snapshot();

        let mut b = AgreementReplica::new(SpiderConfig::default(), 1, dir, &[]);
        let (sn, t, hist) = b.restore_snapshot(&snap.concat()).expect("valid snapshot");
        assert_eq!(sn, 42);
        assert_eq!(t.get(&ClientId(1)), Some(&7));
        assert_eq!(t.get(&ClientId(9)), Some(&3));
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].0, 41);
        assert_eq!(hist, a.hist);
    }

    #[test]
    fn agreement_snapshot_rejects_garbage() {
        let dir = crate::directory::Directory::new();
        let mut a = AgreementReplica::new(SpiderConfig::default(), 0, dir, &[]);
        assert!(a.restore_snapshot(&[1, 2, 3]).is_none());
        assert!(a.restore_snapshot(&[]).is_none());
    }
}
