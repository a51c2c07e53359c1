//! Agreement replicas (Fig 17).
//!
//! An agreement replica pulls new requests out of the request channels
//! (one per execution group, one subchannel per client), feeds them into
//! the consensus black-box, assigns agreement sequence numbers to the
//! delivered total order, pushes `Execute`s into every commit channel
//! (skipping up to `z` trailing groups, §3.5), checkpoints `(t, hist)`
//! periodically, and applies ordered reconfiguration commands (§3.6).
//! It is always correct: a traitor is this replica with a
//! [`crate::byzantine`] adversary rewriting what it sends.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::checkpoint::{Apply, CheckpointComponent, CpAction, Part, Snapshot};
use crate::config::SpiderConfig;
use crate::directory::Directory;
use crate::host;
use crate::keys::{AGREEMENT_GROUP, KEY_SEED};
use crate::messages::{
    AdminCommand, Execute, ExecutePayload, OrderItem, OrderedRequest, SpiderMsg,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use spider_consensus::{Input, Output, Pbft, PbftConfig};
use spider_crypto::{Hashed, Keyring};
use spider_irmc::{
    Action, ReceiveResult, ReceiverEndpoint, Run, SenderEndpoint, MAX_RANGE, OP_RECAST,
    TICK_INTERVAL,
};
use spider_sim::{
    req_id, Actor, Context, Timer, PHASE_BATCH, PHASE_COMMIT, PHASE_PROPOSE, PHASE_RECAST,
    PHASE_SHIP,
};
use spider_types::{ClientId, GroupId, NodeId, OpKind, Position, SeqNr, Sink};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};

/// Timer tag (PBFT's and the checkpoint component's are `host`'s).
const TAG_TICK: u64 = 1;

/// Decoded agreement snapshot: `(sn, t, hist)` as written by
/// `encode_snapshot`.
type DecodedSnapshot = (u64, BTreeMap<ClientId, u64>, VecDeque<(u64, OrderItem)>);

/// The pair of IRMC endpoints an agreement replica maintains per
/// execution group (§3.2: one request channel + one commit channel).
struct GroupChannels {
    req_recv: ReceiverEndpoint<Hashed<OrderedRequest>>,
    commit_send: SenderEndpoint<Execute>,
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
    /// Clients whose request subchannel a call made ready or moved, to be
    /// polled once it returns (one buffer, reused).
    polls: Vec<ClientId>,
    /// `process_backlog`'s run being cut and the instances it completes
    /// (two buffers, reused; a nested call while they are out uses its own).
    run: Vec<(u64, Hashed<OrderedRequest>)>,
    completed: Vec<(u64, u64)>,
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
        let keyring = Keyring::new(KEY_SEED);
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
            cp: CheckpointComponent::new(AGREEMENT_GROUP, me, cfg.fa, keyring, cfg.cost),
            backlog: VecDeque::new(),
            instance_map: VecDeque::new(),
            polls: Vec::new(),
            run: Vec::new(),
            completed: Vec::new(),
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

    /// Last assigned agreement sequence number.
    pub fn sequence(&self) -> SeqNr {
        SeqNr(self.sn)
    }

    /// Current consensus view (for leader-location instrumentation).
    pub fn view(&self) -> spider_types::ViewNr {
        self.pbft.view()
    }

    /// How many of this replica's checkpoint votes lost (its state
    /// differed from the one its group certified).
    pub fn lost_votes(&self) -> u64 {
        self.cp.lost_votes()
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
                ReceiveResult::Ready(request) => {
                    // The channel guarantees fe+1 execution replicas vouch
                    // for the request; verify the client's own signature
                    // before ordering (A-Validity).
                    ctx.charge_op("agreement", "req_verify", self.cfg.cost.rsa_verify());
                    ctx.span_instant(req_id(client.0, next), PHASE_PROPOSE);
                    delivered = true;
                    self.t_next.insert(client, next + 1);
                    self.pbft_step(ctx, Input::Order(OrderItem::Request(request)));
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

    /// Runs one input through the consensus black box, reacting to what
    /// it delivers as it delivers it, then assigns what the backlog holds.
    fn pbft_step(&mut self, ctx: &mut Context<'_, SpiderMsg>, input: Input<OrderItem>) {
        let agreement = self.directory.agreement();
        self.pbft.handle(ctx.now(), input, &mut |output| {
            match host::pbft_io(ctx, &agreement, SpiderMsg::Agreement, output) {
                Some(Output::Deliver { seq, batch }) => {
                    let n = batch.len();
                    for (i, item) in batch.iter().enumerate() {
                        if let OrderItem::Request(req) = item {
                            let rid = req_id(req.request.client.0, req.request.tc);
                            ctx.span_instant(rid, PHASE_COMMIT);
                        }
                        self.backlog.push_back((seq.0, item.clone(), i + 1 == n));
                    }
                    if n == 0 {
                        // No-op instance: completes immediately at the
                        // current sequence number.
                        self.instance_map.push_back((seq.0, self.sn));
                    }
                }
                Some(Output::ViewChanged { view, .. }) => ctx.health_view(view.0),
                // We missed decided instances: catch up via the agreement
                // checkpoint past `sn` (§3.4, Fig 17 L47). A fetch request
                // makes nothing stable.
                Some(Output::Skipped { .. }) => {
                    let (need, dir) = (SeqNr(self.sn + 1), &self.directory);
                    let _ = host::checkpoint_io(ctx, dir, &mut self.cp, |cp, _, out| {
                        cp.fetch(need, out)
                    });
                }
                _ => {}
            }
        });
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
    /// replicas — at absolute multiples of the commit channel's range cap
    /// ([`MAX_RANGE`], what [`SpiderConfig::commit_channel`] leaves
    /// [`spider_irmc::IrmcConfig::max_range`] at); those cut
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
    ///
    /// Forwarding a run re-enters this function (a moved commit window, a
    /// checkpoint made stable) while the replica's run buffers are taken:
    /// the nested call cuts its runs in buffers of its own.
    fn process_backlog(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
        // While a checkpoint fetch is out the group has numbered past `sn`:
        // numbering from `sn` now would number its items a second time.
        if self.cp.is_fetching() {
            return;
        }
        let mut run = std::mem::take(&mut self.run);
        let mut completed = std::mem::take(&mut self.completed);
        loop {
            run.clear();
            completed.clear();
            let mut stalled = false;
            let mut applied_admin = false;
            while run.len() < MAX_RANGE {
                let Some((instance, item, last)) = self.backlog.front().cloned() else {
                    break;
                };
                match item {
                    OrderItem::Admin(cmd) => {
                        if !run.is_empty() {
                            break; // Flush the run before reconfiguring.
                        }
                        self.backlog.pop_front();
                        self.apply_admin(ctx, cmd);
                        applied_admin = true;
                        if last {
                            self.instance_map.push_back((instance, self.sn));
                        }
                    }
                    OrderItem::Request(req) => {
                        let (c, tc) = (req.request.client, req.request.tc);
                        // Numbered already, here or in a checkpoint this
                        // replica restored: a correct client has one
                        // request out at a time, so its counters reach the
                        // order increasing.
                        if self.t.get(&c).is_some_and(|numbered| tc <= *numbered) {
                            self.backlog.pop_front();
                            if last {
                                let entry = (instance, self.sn + run.len() as u64);
                                if run.is_empty() {
                                    self.instance_map.push_back(entry);
                                } else {
                                    completed.push(entry);
                                }
                            }
                            continue;
                        }
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
                        self.backlog.pop_front();
                        if last {
                            completed.push((instance, s));
                        }
                        self.t.insert(c, tc);
                        let next = self.t_next.entry(c).or_insert(1);
                        *next = (*next).max(tc + 1);
                        let at_checkpoint = s.is_multiple_of(self.cfg.ka);
                        // Grid cut: never straddle a multiple of the range
                        // cap, so replicas whose runs diverged at local
                        // back-pressure re-align at the next grid line.
                        let at_grid = s.is_multiple_of(MAX_RANGE as u64);
                        run.push((s, req));
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
                break;
            }
            self.assign_and_forward_run(ctx, &run);
            self.instance_map.extend(completed.drain(..));
            if stalled {
                break;
            }
        }
        // Hold no requests between calls.
        run.clear();
        (self.run, self.completed) = (run, completed);
    }

    /// Assigns sequence numbers to a contiguous run of ordered requests
    /// and flushes it into every commit channel as one range.
    fn assign_and_forward_run(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        run: &[(u64, Hashed<OrderedRequest>)],
    ) {
        let Some(first) = run.first().map(|r| r.0) else {
            return;
        };
        ctx.span(0, PHASE_BATCH, |ctx| {
            for (s, req) in run {
                self.sn = *s;
                self.ordered += 1;
                self.hist.push_back((*s, OrderItem::Request(req.clone())));
            }
            while self.hist.len() as u64 > self.cfg.commit_capacity {
                self.hist.pop_front();
            }
            // One `Execute` per slot and one run for every group that
            // executes all of them; §3.3 placeholders make a run of its own.
            let full: Run<Execute> = run
                .iter()
                .map(|(s, req)| Execute {
                    seq: SeqNr(*s),
                    payload: ExecutePayload::Full(req.clone()),
                })
                .collect();
            for &group in self.directory.active_groups().iter() {
                let execs = group_run(&full, run, group);
                self.commit_channel(ctx, group, |ep, out| {
                    ep.send_batch(0, Position(first), execs, out);
                });
            }
            for (_, req) in run {
                ctx.span_instant(req_id(req.request.client.0, req.request.tc), PHASE_SHIP);
            }
        });
        if self.sn.is_multiple_of(self.cfg.ka) {
            let (seq, snapshot) = (SeqNr(self.sn), self.encode_snapshot());
            self.checkpoint(ctx, |cp, _, out| cp.generate(seq, snapshot, out));
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
        let mut i = 0;
        while i < items.len() {
            let Some((first, OrderItem::Request(req0))) = items.get(i) else {
                i += 1;
                continue;
            };
            let mut execs = vec![execute_for_group(*first, req0, group)];
            let mut j = i + 1;
            while j < items.len() && execs.len() < MAX_RANGE {
                let Some((s, OrderItem::Request(req))) = items.get(j) else { break };
                if *s != first + execs.len() as u64 {
                    break;
                }
                execs.push(execute_for_group(*s, req, group));
                j += 1;
            }
            let first = Position(*first);
            self.commit_channel(ctx, group, |ep, out| {
                ep.send_batch(0, first, execs, out);
            });
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
                self.commit_channel(ctx, group, |ep, out| ep.move_window(0, Position(start), out));
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
        let hist_len: usize = self.hist.iter().map(|(_, item)| 8 + order_item_len(item)).sum();
        let len = 8 + 4 + 12 * self.t.len() + 4 + hist_len;
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u64(self.sn);
        buf.put_u32(self.t.len() as u32);
        // A `BTreeMap` iterates in `ClientId` order: the encoding's order.
        for (c, tc) in &self.t {
            buf.put_u32(c.0);
            buf.put_u64(*tc);
        }
        buf.put_u32(self.hist.len() as u32);
        for (s, item) in &self.hist {
            buf.put_u64(*s);
            encode_order_item(&mut buf, item);
        }
        debug_assert_eq!(buf.len(), len, "the snapshot was sized exactly");
        Snapshot::single(buf.freeze())
    }

    /// Decodes the one part [`Self::encode_snapshot`] makes, and only
    /// what it writes: `None` for anything else, trailing bytes included.
    fn restore_snapshot(&mut self, parts: &[Part]) -> Option<DecodedSnapshot> {
        let [part] = parts else {
            return None;
        };
        let bytes = part.to_bytes();
        let mut buf: &[u8] = &bytes;
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
        // Nothing follows `hist` in what `encode_snapshot` writes.
        if buf.has_remaining() {
            return None;
        }
        Some((sn, t, hist))
    }

    fn on_stable_checkpoint(&mut self, ctx: &mut Context<'_, SpiderMsg>, seq: SeqNr, apply: Apply) {
        // Fig 17 L44-45: move commit windows + collect consensus garbage.
        let hist_len = self.hist.len() as u64;
        let window_start = seq.0.saturating_sub(hist_len).saturating_add(1);
        self.each_commit_channel(ctx, |ep, out| ep.move_window(0, Position(window_start), out));
        // Consensus gc: forget instances whose requests are all covered.
        let covered = self.instance_map.iter().take_while(|(_, last)| *last <= seq.0).count();
        if let Some((instance, _)) = self.instance_map.drain(..covered).next_back() {
            self.pbft.gc(SeqNr(instance + 1));
        }

        match apply {
            Apply::Keep => {}
            // Behind the checkpoint, or our vote there lost: fetch one past
            // `sn` (Fig 17 L47 path), so that nothing numbered goes back.
            Apply::Fetch => {
                let need = SeqNr(self.sn + 1);
                self.checkpoint(ctx, |cp, _, out| cp.fetch(need, out));
            }
            Apply::Install(snapshot) => {
                ctx.charge(self.cfg.cost.hmac(snapshot.len()));
                if let Some((sn, t, hist)) = self.restore_snapshot(snapshot.parts()) {
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
                    for &group in self.directory.active_groups().iter() {
                        self.replay_execs(ctx, group, &items);
                    }
                }
            }
        }
        // Fig 17 L57: slide the agreement window.
        self.win_upper = self.win_upper.max(seq.0 + self.cfg.ag_win);
        self.process_backlog(ctx);
    }

    // ------------------------------------------------------------------
    // Hosting the machines
    // ------------------------------------------------------------------

    /// Runs `call` on `group`'s commit-channel sender, carrying out what it
    /// emits as it emits it; once it returns, a moved window lets the
    /// backlog advance, and the tick is kept pending while any sender
    /// wants one.
    fn commit_channel(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        group: GroupId,
        call: impl FnOnce(&mut SenderEndpoint<Execute>, &mut dyn Sink<Action<Execute>>),
    ) {
        let (agreement, exec_nodes) =
            (self.directory.agreement(), self.directory.group_replicas(group));
        let wrap = |leg| SpiderMsg::CommitChannel { group, leg };
        let mut window_moved = false;
        if let Some(ch) = self.channels.get_mut(&group) {
            call(&mut ch.commit_send, &mut |a| {
                if matches!(a, Action::Charge(_, OP_RECAST)) {
                    // Liveness milestone: the disaster smoke gate checks a
                    // recast appears after a partition heal.
                    ctx.span_instant(0, PHASE_RECAST);
                }
                if let Some(Action::WindowMoved { .. } | Action::Unblocked { .. }) =
                    host::channel_io(ctx, "commit-channel", &agreement, &exec_nodes, wrap, a)
                {
                    window_moved = true;
                    ctx.health_mark("commit-channel", group.0 as u32);
                }
            });
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
        if self.channels.values().any(|ch| ch.commit_send.wants_tick()) {
            ctx.arm_if_idle(TAG_TICK, TICK_INTERVAL);
        }
    }

    /// Runs `call` on every group's commit-channel sender, in group order,
    /// through [`Self::commit_channel`]. The next group is looked up after
    /// each call, so nothing copies the group list.
    fn each_commit_channel(
        &mut self,
        ctx: &mut Context<'_, SpiderMsg>,
        mut call: impl FnMut(&mut SenderEndpoint<Execute>, &mut dyn Sink<Action<Execute>>),
    ) {
        let mut next = self.channels.keys().next().copied();
        while let Some(group) = next {
            self.commit_channel(ctx, group, &mut call);
            next = self.channels.range((Excluded(group), Unbounded)).next().map(|(g, _)| *g);
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

/// Whether `group` executes `req` (§3.3): every group executes a write,
/// only its target group a strong read; the others get a placeholder.
fn executes_at(req: &Hashed<OrderedRequest>, group: GroupId) -> bool {
    match req.request.operation.kind {
        OpKind::Write => true,
        OpKind::StrongRead => req.origin == group,
        OpKind::WeakRead => false,
    }
}

/// The §3.3 placeholder for `req` at sequence number `s`.
fn placeholder(s: u64, req: &Hashed<OrderedRequest>) -> Execute {
    let (client, tc, target) = (req.request.client, req.request.tc, req.origin);
    Execute { seq: SeqNr(s), payload: ExecutePayload::Placeholder { client, tc, target } }
}

/// Builds the per-group `Execute`: full request for writes and for the
/// read's target group, placeholder elsewhere (§3.3).
fn execute_for_group(s: u64, req: &Hashed<OrderedRequest>, group: GroupId) -> Execute {
    if executes_at(req, group) {
        Execute { seq: SeqNr(s), payload: ExecutePayload::Full(req.clone()) }
    } else {
        placeholder(s, req)
    }
}

/// `group`'s commit-channel content for an ordered `run`, given `full`, the
/// run with every request in full: `full` itself — the same object — if
/// the group executes every slot, as it does every write; otherwise a run
/// that copies `full`'s `Execute`s (and so shares their requests) where the
/// group executes the request and holds placeholders where it does not.
fn group_run(
    full: &Run<Execute>,
    run: &[(u64, Hashed<OrderedRequest>)],
    group: GroupId,
) -> Run<Execute> {
    if run.iter().all(|(_, req)| executes_at(req, group)) {
        return full.clone();
    }
    let slots = run.iter().zip(full.iter()).map(|((s, req), exec)| {
        if executes_at(req, group) {
            exec.clone()
        } else {
            placeholder(*s, req)
        }
    });
    slots.collect()
}

/// Length of what [`encode_order_item`] writes for `item`.
fn order_item_len(item: &OrderItem) -> usize {
    match item {
        OrderItem::Request(req) => 1 + 2 + 4 + 8 + 1 + 4 + req.request.operation.op.len(),
        OrderItem::Admin(AdminCommand::AddGroup { .. } | AdminCommand::RemoveGroup { .. }) => 1 + 2,
    }
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
                2 => OpKind::WeakRead,
                _ => return None,
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
        if self.channels.values().any(|ch| ch.commit_send.wants_tick()) {
            ctx.arm_if_idle(TAG_TICK, TICK_INTERVAL);
        }
        self.checkpoint(ctx, |cp, _, out| cp.start(out));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, SpiderMsg>, from: NodeId, msg: SpiderMsg) {
        ctx.charge(self.cfg.cost.msg_overhead());
        match msg {
            SpiderMsg::Agreement(m) => {
                if let Some(idx) = self.directory.replica_index(AGREEMENT_GROUP, from) {
                    self.pbft_step(ctx, Input::Message { from: idx, msg: m });
                }
            }
            SpiderMsg::RequestChannel { group, leg } => {
                let Some(ch) = self.channels.get_mut(&group) else { return };
                let execs = self.directory.group_replicas(group);
                let wrap = |leg| SpiderMsg::RequestChannel { group, leg };
                host::receiver_frame(&mut ch.req_recv, &execs, from, leg, &mut |a| {
                    // A `SetTimer` (one collector timer per client subchannel)
                    // is dropped: SC request channels rely on client retries.
                    if let Some(Action::Ready { sc, .. } | Action::WindowMoved { sc, .. }) =
                        host::channel_io(ctx, "req-channel", &execs, &[], wrap, a)
                    {
                        let c = ClientId(sc as u32);
                        if !self.polls.contains(&c) {
                            self.polls.push(c);
                        }
                    }
                });
                // Polling reads the endpoint, so it waits for the frame.
                let mut polls = std::mem::take(&mut self.polls);
                for c in polls.drain(..) {
                    self.poll_client(ctx, group, c);
                }
                self.polls = polls;
            }
            SpiderMsg::CommitChannel { group, leg } if self.channels.contains_key(&group) => {
                let (agreement, execs) =
                    (self.directory.agreement(), self.directory.group_replicas(group));
                self.commit_channel(ctx, group, |ep, out| {
                    host::sender_frame(ep, &agreement, &execs, from, leg, out)
                });
            }
            SpiderMsg::Admin(cmd) => {
                // Reconfiguration commands are signed by the privileged
                // admin client and ordered like requests (§3.6).
                ctx.charge(self.cfg.cost.rsa_verify());
                self.pbft_step(ctx, Input::Order(OrderItem::Admin(cmd)));
            }
            SpiderMsg::Checkpoint { group, msg } => self.checkpoint(ctx, |cp, dir, out| {
                host::checkpoint_frame(cp, dir, from, group, msg, out)
            }),
            SpiderMsg::CommitChannel { .. } | SpiderMsg::Request(_) | SpiderMsg::Reply(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, SpiderMsg>, timer: Timer) {
        match timer.tag {
            TAG_TICK => self.each_commit_channel(ctx, |ep, out| ep.tick(out)),
            tag => {
                if let Some(timer) = host::checkpoint_timer(tag) {
                    self.checkpoint(ctx, |cp, _, out| cp.on_timer(timer, out));
                } else if let Some(input) = host::pbft_timer(tag) {
                    self.pbft_step(ctx, input);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{ClientRequest, Operation};
    use bytes::Bytes;
    use spider_irmc::ChannelMsg;

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

    type Shipped = std::rc::Rc<std::cell::RefCell<Vec<(GroupId, Run<Execute>)>>>;
    type OrderedRun = Vec<(u64, Hashed<OrderedRequest>)>;

    /// An execution replica that keeps the runs cast to it.
    struct Keep(Shipped);
    impl Actor<SpiderMsg> for Keep {
        fn on_message(&mut self, _: &mut Context<'_, SpiderMsg>, _: NodeId, msg: SpiderMsg) {
            use crate::messages::ChannelLeg::ToReceiver;
            if let SpiderMsg::CommitChannel {
                group,
                leg: ToReceiver(ChannelMsg::Cast { msgs, .. }),
            } = msg
            {
                self.0.borrow_mut().push((group, msgs));
            }
        }
    }

    type Act = Box<dyn FnOnce(&mut AgreementReplica, &mut Context<'_, SpiderMsg>)>;

    /// The runs agreement replica 0 of a four-group deployment casts to
    /// the first replica of every group when it forwards `run`.
    fn forward(run: OrderedRun) -> Vec<(GroupId, Run<Execute>)> {
        on_replica_0(Box::new(move |a, ctx| a.assign_and_forward_run(ctx, &run)))
    }

    /// Runs `act` on agreement replica 0 of a four-group deployment once
    /// it has started; returns the runs it cast to the first replica of
    /// every group.
    fn on_replica_0(act: Act) -> Vec<(GroupId, Run<Execute>)> {
        use spider_sim::{Simulation, Topology};
        struct Agree(Option<(AgreementReplica, Act)>);
        impl Actor<SpiderMsg> for Agree {
            fn on_start(&mut self, ctx: &mut Context<'_, SpiderMsg>) {
                if let Some((mut a, act)) = self.0.take() {
                    act(&mut a, ctx);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, SpiderMsg>, _: NodeId, _: SpiderMsg) {}
        }
        let topology = Topology::builder().region("r", 1).jitter(0.0).build();
        let mut sim: Simulation<SpiderMsg> = Simulation::new(topology, 1);
        let zone = sim.topology().zone("r", 0);
        let shipped = Shipped::default();
        let dir = crate::directory::Directory::new();
        let agreement: Vec<NodeId> =
            (0..4).map(|_| sim.add_node(zone, Keep(Shipped::default()))).collect();
        let groups: Vec<GroupId> = (0..4).map(GroupId).collect();
        for &g in &groups {
            let replicas = vec![
                sim.add_node(zone, Keep(shipped.clone())),
                sim.add_node(zone, Keep(Shipped::default())),
                sim.add_node(zone, Keep(Shipped::default())),
            ];
            dir.register_group(g, crate::directory::GroupInfo { replicas, active: true });
        }
        let cfg = SpiderConfig::default()
            .with_commit_mode(spider_irmc::ChannelMode::ReliableCast { dedup: false });
        let a = AgreementReplica::new(cfg, 0, dir.clone(), &groups);
        dir.set_agreement(agreement);
        sim.add_node(zone, Agree(Some((a, act))));
        sim.run_until_quiescent(spider_types::SimTime::from_secs(1));
        let mut runs = shipped.borrow().clone();
        runs.sort_by_key(|(g, _)| *g);
        runs
    }

    /// A request delivered again, or one a restored checkpoint covers,
    /// gets no second number: its counter is at or below the last one
    /// numbered for its client.
    #[test]
    fn a_numbered_request_gets_no_second_number() {
        let write = |c, tc| OrderItem::Request(request(c, tc, OpKind::Write));
        let numbered = std::rc::Rc::new(std::cell::RefCell::new(None));
        let seen = numbered.clone();
        on_replica_0(Box::new(move |a, ctx| {
            a.backlog.push_back((1, write(1, 5), true));
            a.process_backlog(ctx);
            a.backlog.extend([(2, write(1, 5), false), (2, write(3, 2), true)]);
            a.process_backlog(ctx);
            *seen.borrow_mut() = Some((a.sn, a.instance_map.clone(), a.hist.clone()));
        }));
        let (sn, instance_map, hist) = numbered.take().expect("replica 0 started");
        assert_eq!(sn, 2);
        assert_eq!(instance_map, [(1, 1), (2, 2)]);
        assert_eq!(hist, [(1, write(1, 5)), (2, write(3, 2))]);
    }

    #[test]
    fn a_write_batch_is_one_run_for_every_group() {
        let run = vec![(1, request(1, 5, OpKind::Write)), (2, request(3, 2, OpKind::Write))];
        let runs = forward(run);
        assert_eq!(runs.iter().map(|(g, _)| g.0).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let (_, first) = &runs[0];
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|e| matches!(e.payload, ExecutePayload::Full(_))));
        for (g, r) in &runs {
            assert!(std::ptr::eq(&r[..], &first[..]), "group {g:?} got a run of its own");
        }
    }

    #[test]
    fn a_strong_read_makes_placeholders_for_the_other_groups() {
        // `request` targets group 2.
        let (write, read) = (request(1, 5, OpKind::Write), request(3, 2, OpKind::StrongRead));
        let runs = forward(vec![(1, write), (2, read)]);
        assert_eq!(runs.len(), 4);
        let (_, target) = &runs[2];
        let ExecutePayload::Full(write) = &target[0].payload else { panic!("a write is full") };
        for (g, r) in &runs {
            let ExecutePayload::Full(ordered) = &r[0].payload else { panic!("a write is full") };
            assert!(std::ptr::eq(&**ordered, &**write), "the write's request is shared");
            if *g == GroupId(2) {
                assert!(matches!(r[1].payload, ExecutePayload::Full(_)));
            } else {
                let ExecutePayload::Placeholder { client, tc, target } = r[1].payload else {
                    panic!("group {g:?} executes a read that runs elsewhere");
                };
                assert_eq!((client, tc, target), (ClientId(3), 2, GroupId(2)));
                assert!(!std::ptr::eq(&r[..], &runs[2].1[..]));
            }
            assert_eq!(r[1].seq, SeqNr(2));
        }
    }

    #[test]
    fn corrupted_execute_does_not_keep_the_honest_digest() {
        use crate::keys::agreement_key;
        use crate::messages::ChannelLeg::ToReceiver;
        use spider_crypto::Digestible;
        let honest = execute_for_group(9, &request(1, 5, OpKind::Write), GroupId(0));
        // Remembered where it is kept: the ordered request and the request.
        let honest_digest = honest.digest();
        // A one-slot cast: its statement binds the content digest.
        let (ring, key) = (Keyring::new(KEY_SEED), agreement_key(2));
        let statement = |root| spider_irmc::range_digest(0, Position(9), 1, &root);
        let sig = ring.sign(key, &statement(honest_digest));
        let cast =
            ChannelMsg::Cast { sc: 0, first: Position(9), msgs: Run::from(vec![honest]), sig };
        let frame = SpiderMsg::CommitChannel { group: GroupId(0), leg: ToReceiver(cast) };
        let mut traitor = crate::byzantine::commit_traitor(2);
        let Some(SpiderMsg::CommitChannel {
            leg: ToReceiver(ChannelMsg::Cast { msgs, sig, .. }),
            ..
        }) = traitor(NodeId(0), frame)
        else {
            panic!("the traitor still casts")
        };
        let bad = &msgs[0];
        let ExecutePayload::Full(ordered) = &bad.payload else { panic!("a write stays full") };
        assert_eq!(&ordered.request.operation.op[..], b"add:666");
        assert_ne!(bad.digest(), honest_digest, "no stale digest vouches for the new content");
        // The forged statement carries the traitor's own valid signature.
        assert!(ring.verify(key, &statement(bad.digest()), &sig));
        assert!(!ring.verify(key, &statement(honest_digest), &sig));
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
        let (sn, t, hist) = b.restore_snapshot(snap.parts()).expect("valid snapshot");
        assert_eq!(sn, 42);
        assert_eq!(t.get(&ClientId(1)), Some(&7));
        assert_eq!(t.get(&ClientId(9)), Some(&3));
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].0, 41);
        assert_eq!(hist, a.hist);
    }

    /// The bytes agreement replicas sign for a fixed state, at the value
    /// the encoding had when this test was written.
    #[test]
    fn agreement_snapshot_bytes_are_pinned() {
        let dir = crate::directory::Directory::new();
        let mut a = AgreementReplica::new(SpiderConfig::default(), 0, dir, &[]);
        a.sn = 42;
        a.t.insert(ClientId(1), 7);
        a.t.insert(ClientId(9), 3);
        a.hist.push_back((40, OrderItem::Admin(AdminCommand::AddGroup { group: GroupId(5) })));
        a.hist.push_back((41, OrderItem::Request(request(1, 6, OpKind::Write))));
        a.hist.push_back((42, OrderItem::Request(request(9, 3, OpKind::StrongRead))));
        let snap = a.encode_snapshot();
        assert_eq!((snap.parts().len(), snap.len()), (1, 121));
        assert_eq!(format!("{}", snap.hash()), "65873032df6a1045");
    }

    #[test]
    fn agreement_snapshot_rejects_garbage() {
        let dir = crate::directory::Directory::new();
        let mut a = AgreementReplica::new(SpiderConfig::default(), 0, dir, &[]);
        assert!(a.restore_snapshot(&[Part::new(Bytes::from_static(&[1, 2, 3]))]).is_none());
        assert!(a.restore_snapshot(&[]).is_none());
        let whole = a.encode_snapshot().parts()[0].clone();
        assert!(a.restore_snapshot(std::slice::from_ref(&whole)).is_some());
        assert!(a.restore_snapshot(&[whole.clone(), whole.clone()]).is_none(), "one part, not two");
        let bytes = whole.to_bytes();
        let pieces = Part::from_pieces([bytes.slice(..7), bytes.slice(7..)]);
        assert!(a.restore_snapshot(&[pieces]).is_some(), "however its bytes are cut");
        let trailing = [&bytes[..], &[0]].concat();
        assert!(
            a.restore_snapshot(&[Part::new(Bytes::from(trailing))]).is_none(),
            "one byte after hist"
        );

        // A request's op kind is 0, 1 or 2: `sn`, `t` (no clients), the
        // hist length, one item's sequence number, tag, origin, client and
        // counter come before it.
        a.hist.push_back((1, OrderItem::Request(request(1, 1, OpKind::WeakRead))));
        let mut bytes = a.encode_snapshot().parts()[0].to_bytes().to_vec();
        let kind = 8 + 4 + 4 + 8 + 1 + 2 + 4 + 8;
        assert_eq!(bytes[kind], 2, "the weak read's kind byte");
        assert!(a.restore_snapshot(&[Part::new(Bytes::from(bytes.clone()))]).is_some());
        bytes[kind] = 3;
        assert!(a.restore_snapshot(&[Part::new(Bytes::from(bytes))]).is_none(), "kind byte 3");
    }
}
