//! Receiver-side IRMC endpoint (Fig 18 receiver half; Fig 20 for
//! IRMC-SC).
//!
//! A [`ChannelMsg::Cast`] (RC) or [`ChannelMsg::Certificate`] (SC) is
//! checked with **one** signature verification per signer for the whole
//! contiguous slot run it covers — the receiver recomputes the root over
//! the per-slot content digests and accepts or rejects the run as a unit
//! (a single tampered slot invalidates the root, so nothing from the run
//! delivers). For IRMC-SC the raw content of a range may arrive ahead of
//! its certificate (§A.9 overlap, [`ChannelMsg::Content`]); it is
//! buffered and **never** delivered until a valid certificate covers it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::config::{IrmcConfig, Variant};
use crate::messages::{range_digest, ChannelMsg, ReceiverMsg, Run, RunCost};
use crate::window::Window;
use crate::{Action, Content, IrmcError, Subchannel};
use spider_crypto::{Digest, Keyring, RootCache, Signature};
use spider_types::{Position, SimTime, Sink};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// IRMC-SC: how long a receiver waits for a lagging collector before
/// switching to another sender (Fig 20 L30-35). Suspicion-scale: expiry
/// accuses the collector of a fault.
pub const COLLECTOR_TIMEOUT: SimTime = SimTime::from_millis(500);

/// IRMC-RC dedup: how long a receiver waits for a vouched range's
/// content before (re)fetching copies from the vouchers. Unlike
/// [`COLLECTOR_TIMEOUT`], expiry is not a fault accusation — senders
/// routinely cut ranges at diverged boundaries under replica-local
/// back-pressure, and the refetch is how the receiver converges them —
/// so this is RTT-scale, not suspicion-scale.
pub const REFETCH_DELAY: SimTime = SimTime::from_millis(125);

/// Result of polling a position (the sans-IO form of Fig 14 `receive`).
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiveResult<M> {
    /// The message for this position.
    Ready(M),
    /// The window has moved past the position: the receiver fell behind
    /// and must recover via checkpoint (§3.4). Carries the new window
    /// start, like the pseudocode's `⟨TooOld, s⟩`.
    TooOld(Position),
    /// Nothing deliverable yet; poll again after the next
    /// [`Action::Ready`] or [`Action::WindowMoved`] for this subchannel.
    Pending,
}

impl<M> ReceiveResult<M> {
    /// The delivered payload, if any.
    pub fn into_payload(self) -> Option<M> {
        match self {
            ReceiveResult::Ready(m) => Some(m),
            ReceiveResult::TooOld(_) | ReceiveResult::Pending => None,
        }
    }
}

/// Range content that cannot deliver yet: SC content ahead of its
/// certificate (§A.9 overlap), or RC-dedup content ahead of its vouch
/// quorum.
#[derive(Debug)]
struct PendingContent<M> {
    /// Sender that shipped it (at most one buffered candidate per sender,
    /// so a faulty collector cannot evict honest content).
    from: usize,
    run: Run<M>,
}

/// What a receiver holds for one position.
#[derive(Debug)]
struct Slot<M> {
    /// RC: the verified copies credited so far, one per sender, ordered
    /// by sender index: (sender, content digest, message).
    copies: Vec<(usize, Digest, M)>,
    /// Deliverable content. `Action::Ready` went out when this was first
    /// set.
    ready: Option<M>,
}

impl<M> Default for Slot<M> {
    fn default() -> Self {
        Slot { copies: Vec::new(), ready: None }
    }
}

/// The per-slot records of the positions `[base, base + len)`, `base`
/// being the window start: a ring indexed by `p - base` that grows at the
/// back as positions are first touched and is drained at the front when
/// the window moves. Every position an endpoint touches has passed the
/// window's far-above guard (or belongs to a run whose first slot has),
/// so the ring never holds more than two windows plus one run.
///
/// Drained records are emptied and kept for the positions that are
/// touched next, so a record's copy list keeps its allocation from one
/// position to the next. Positions are touched a run at a time, so one
/// run's worth of spare records (the range cap, at most one window) serves
/// the steady state without holding a second window of memory.
#[derive(Debug)]
struct Slots<M> {
    base: u64,
    ring: VecDeque<Slot<M>>,
    /// Emptied records, at most `spare_cap`.
    spare: Vec<Slot<M>>,
    spare_cap: usize,
}

impl<M> Slots<M> {
    fn new(spare_cap: usize) -> Self {
        Slots { base: 1, ring: VecDeque::new(), spare: Vec::new(), spare_cap }
    }

    fn get(&self, p: u64) -> Option<&Slot<M>> {
        self.ring.get(usize::try_from(p.checked_sub(self.base)?).ok()?)
    }

    /// The deliverable content at `p`, if any.
    fn ready(&self, p: u64) -> Option<&M> {
        self.get(p)?.ready.as_ref()
    }

    /// The record of `p`, growing the ring up to it; `None` below the
    /// window, where nothing is held.
    fn entry(&mut self, p: u64) -> Option<&mut Slot<M>> {
        let i = usize::try_from(p.checked_sub(self.base)?).ok()?;
        if i >= self.ring.len() {
            let spare = &mut self.spare;
            self.ring.resize_with(i.checked_add(1)?, || spare.pop().unwrap_or_default());
        }
        self.ring.get_mut(i)
    }

    /// How many positions of `[lo, hi)` are deliverable (`lo >= base`).
    fn ready_in(&self, lo: u64, hi: u64) -> usize {
        let skip = (lo - self.base) as usize;
        self.ring.iter().skip(skip).take((hi - lo) as usize).filter(|s| s.ready.is_some()).count()
    }

    /// Forgets everything below `start`, the new window start.
    fn gc_below(&mut self, start: u64) {
        let gone =
            usize::try_from(start - self.base).map_or(usize::MAX, |n| n.min(self.ring.len()));
        let kept = gone.min(self.spare_cap.saturating_sub(self.spare.len()));
        for mut slot in self.ring.drain(..kept) {
            slot.copies.clear();
            slot.ready = None;
            self.spare.push(slot);
        }
        self.ring.drain(..gone - kept);
        self.base = start;
    }
}

#[derive(Debug)]
struct ReceiverSub<M> {
    awin: Window,
    /// Per-position state: RC copies awaiting a quorum, and what is
    /// deliverable.
    slots: Slots<M>,
    /// RC dedup: per range first position, per sender: the vouched
    /// statement (count, Merkle root). A verified range `Cast` registers
    /// as its sender's statement too, so the carrier counts toward the
    /// quorum. First statement per sender wins (no equivocation).
    vouches: BTreeMap<u64, BTreeMap<usize, (u32, Digest)>>,
    /// RC dedup: round-robin cursor over the vouchers of a stalled range,
    /// so successive refetches try different senders.
    fetch_cursor: BTreeMap<u64, usize>,
    /// SC: uncertified early-shipped range content, by first position;
    /// at most one candidate per sender (a faulty collector must not be
    /// able to evict the honest content).
    pending_content: BTreeMap<u64, Vec<PendingContent<M>>>,
    /// SC: validated certificates that arrived before their content, by
    /// first position: (count, root) statements, at most one per sender
    /// (diverged boundaries can certify several lengths for one start).
    pending_certs: BTreeMap<u64, Vec<(u32, Digest)>>,
    /// Window-shift requests received from each sender.
    sender_moves: Vec<Position>,
    /// Scratch buffer for the `fs + 1`-selections (reused across calls).
    scratch: Vec<Position>,
    /// SC: per-sender claimed progress.
    progress: Vec<Position>,
    /// SC: merged progress (fs+1-highest sender claim).
    merged_progress: Position,
    /// Cached first-missing cursor: every position in
    /// `[awin.start, missing_cursor)` is ready, so the gap scan resumes
    /// here instead of rescanning from the window start.
    missing_cursor: u64,
    /// SC: current collector (sender index).
    collector: usize,
    /// SC: whether the supervision timer is armed.
    timer_armed: bool,
}

impl<M> ReceiverSub<M> {
    fn new(capacity: u64, max_range: usize, n_senders: usize, me: usize) -> Self {
        let spare = max_range.min(usize::try_from(capacity).unwrap_or(usize::MAX));
        ReceiverSub {
            awin: Window::new(capacity),
            slots: Slots::new(spare),
            vouches: BTreeMap::new(),
            fetch_cursor: BTreeMap::new(),
            pending_content: BTreeMap::new(),
            pending_certs: BTreeMap::new(),
            sender_moves: vec![Position(0); n_senders],
            scratch: Vec::new(),
            progress: vec![Position(0); n_senders],
            merged_progress: Position(0),
            missing_cursor: 1,
            collector: me % n_senders,
            timer_armed: false,
        }
    }

    fn gc_below(&mut self, start: Position) {
        let s = start.0;
        self.slots.gc_below(s);
        self.vouches.retain(|&p, stmts| stmts.values().any(|&(c, _)| p + c as u64 > s));
        self.fetch_cursor.retain(|&p, _| p >= s);
        self.pending_content.retain(|&p, cands| {
            cands.retain(|pc| p + pc.run.len() as u64 > s);
            !cands.is_empty()
        });
        self.pending_certs.retain(|&p, certs| {
            certs.retain(|(count, _)| p + *count as u64 > s);
            !certs.is_empty()
        });
        self.missing_cursor = self.missing_cursor.max(s);
    }
}

/// The receiver half of an IRMC, owned by one replica of the receiver
/// group.
pub struct ReceiverEndpoint<M> {
    cfg: IrmcConfig,
    me: usize,
    keyring: Keyring,
    subs: BTreeMap<Subchannel, ReceiverSub<M>>,
    /// RC dedup: range digests whose carrier signature already verified,
    /// so a retransmitted content copy is accepted by root comparison
    /// (one Merkle recompute, no second RSA verification). Keyed by the
    /// full [`range_digest`] — which binds `(sc, first, count, root)` —
    /// not the bare root, so a hit can never be replayed across ranges.
    root_cache: RootCache,
}

impl<M: Content> ReceiverEndpoint<M> {
    /// Creates receiver endpoint `me` of the channel.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(cfg: IrmcConfig, me: usize, keyring: Keyring) -> Self {
        assert!(me < cfg.n_receivers, "receiver index out of range");
        // Two windows' worth of verified range digests comfortably covers
        // in-flight retransmissions without unbounded growth.
        let root_cache = RootCache::new((cfg.capacity as usize).saturating_mul(2));
        ReceiverEndpoint { cfg, me, keyring, subs: BTreeMap::new(), root_cache }
    }

    /// This endpoint's index within the receiver group.
    pub fn index(&self) -> usize {
        self.me
    }

    /// Current flow-control window of a subchannel.
    pub fn window(&self, sc: Subchannel) -> Window {
        self.subs.get(&sc).map(|s| s.awin).unwrap_or_else(|| Window::new(self.cfg.capacity))
    }

    fn sub(&mut self, sc: Subchannel) -> &mut ReceiverSub<M> {
        let (capacity, n_senders, me) = (self.cfg.capacity, self.cfg.n_senders, self.me);
        let max_range = self.cfg.max_range;
        self.subs.entry(sc).or_insert_with(|| ReceiverSub::new(capacity, max_range, n_senders, me))
    }

    /// Polls for the message at `(sc, p)` (Fig 14 `receive`, non-blocking).
    pub fn try_receive(&mut self, sc: Subchannel, p: Position) -> ReceiveResult<M> {
        let sub = self.sub(sc);
        if sub.awin.is_below(p) {
            return ReceiveResult::TooOld(sub.awin.start());
        }
        match sub.slots.ready(p.0) {
            Some(m) => ReceiveResult::Ready(m.clone()),
            None => ReceiveResult::Pending,
        }
    }

    /// Moves the subchannel window forward on behalf of the local replica
    /// (Fig 14 `move_window`, receiver side). Notifies all senders.
    pub fn move_window(&mut self, sc: Subchannel, p: Position, out: &mut dyn Sink<Action<M>>) {
        let sub = self.sub(sc);
        if !sub.awin.advance_to(p) {
            return;
        }
        sub.gc_below(p);
        out.emit(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        for s in 0..self.cfg.n_senders {
            out.emit(Action::ToSender { to: s, msg: ReceiverMsg::Move { sc, p } });
        }
        out.emit(Action::WindowMoved { sc, start: p });
    }

    /// Handles a message from sender endpoint `from`.
    ///
    /// `Err` means the frame was rejected (and why); the channel state is
    /// unchanged beyond the CPU cost already charged for inspecting it.
    /// Rejections are expected under Byzantine senders — callers discard
    /// the frame and may count or log the reason.
    pub fn on_sender_message(
        &mut self,
        from: usize,
        msg: ChannelMsg<M>,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        if from >= self.cfg.n_senders {
            return Err(IrmcError::UnknownEndpoint { index: from });
        }
        match msg {
            ChannelMsg::Cast { sc, first, msgs, sig } => {
                self.on_cast(from, sc, first, msgs, sig, out)
            }
            ChannelMsg::Vouch { sc, first, count, root } => {
                self.on_vouch(from, sc, first, count, root, out)
            }
            ChannelMsg::Content { sc, first, msgs } => self.on_content(from, sc, first, msgs, out),
            ChannelMsg::Certificate { sc, first, count, root, shares, content } => {
                self.on_certificate(sc, first, count, root, shares, content, out)
            }
            ChannelMsg::Progress { positions } => self.on_progress(from, positions, out),
            ChannelMsg::Move { sc, p } => self.on_sender_move(from, sc, p, out),
            // Sender-group-internal; a receiver should never see one.
            ChannelMsg::Share { .. } => Err(IrmcError::UnexpectedFrame),
        }
    }

    // ------------------------------------------------------------------
    // IRMC-RC
    // ------------------------------------------------------------------

    /// A sender's signed copy of a run. One signature verification covers
    /// all of it; each member slot is then credited to the sender, so
    /// senders that cut their runs differently still converge on the same
    /// per-slot quorums. A range on a dedup channel takes the digest-only
    /// fan-in instead (see [`RunCost`] for why one slot never does).
    fn on_cast(
        &mut self,
        from: usize,
        sc: Subchannel,
        first: Position,
        msgs: Run<M>,
        sig: Signature,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        if self.cfg.variant() != Variant::ReceiverCollect {
            return Err(IrmcError::WrongVariant);
        }
        self.cfg.check_count(sc, first, msgs.len() as u64)?;
        let cost = RunCost::of(&self.cfg.cost, &msgs);
        if cost.ranged && self.cfg.dedup() {
            return self.on_dedup_cast(from, sc, first, msgs, sig, out);
        }
        let Some(&key) = self.cfg.sender_keys.get(from) else {
            return Err(IrmcError::UnknownEndpoint { index: from });
        };
        // Hash all payloads, rebuild the tree, verify ONE signature.
        let (price, label) = cost.verify(self.cfg.cost.rsa_verify());
        out.emit(Action::Charge(price, label));
        let leaves = msgs.leaves();
        let rd = range_digest(sc, first, msgs.len() as u32, &msgs.root());
        if !self.keyring.verify(key, &rd, &sig) {
            // Any tampered member slot lands here: reject whole.
            return Err(IrmcError::BadSignature { sc, p: first });
        }
        let sub = self.sub(sc);
        if sub.awin.is_far_above(first) {
            // Absurdly far above the window (memory guard).
            return Err(IrmcError::OutOfWindow { sc, p: first });
        }
        for (i, (leaf, m)) in leaves.iter().zip(msgs.iter()).enumerate() {
            let p = Position(first.0 + i as u64);
            self.credit_rc_slot(from, sc, p, *leaf, m.clone(), out)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // IRMC-RC digest-only fan-in (dedup)
    // ------------------------------------------------------------------

    /// Signed content from the (claimed) primary carrier of a dedup
    /// range. The content is hashed exactly once; the signature is
    /// skipped when this exact range digest already verified (a
    /// retransmission — [`RootCache`]). The verified statement counts as
    /// its sender's vouch, so the carrier participates in the quorum.
    fn on_dedup_cast(
        &mut self,
        from: usize,
        sc: Subchannel,
        first: Position,
        msgs: Run<M>,
        sig: Signature,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        let Some(&key) = self.cfg.sender_keys.get(from) else {
            return Err(IrmcError::UnknownEndpoint { index: from });
        };
        let count = msgs.len();
        let cost = RunCost::of(&self.cfg.cost, &msgs);
        {
            let sub = self.sub(sc);
            if Self::range_delivered(sub, first.0, count as u64) {
                // Late duplicate (below the window, or the range already
                // delivered): drop after the transport MAC — the member
                // slots are NOT re-hashed. Remind the carrier where our
                // window starts in case its view went stale during a
                // partition (it only learns through `Move`s).
                let start = sub.awin.start();
                out.emit(Action::Charge(self.cfg.cost.hmac(cost.bytes), "payload_hash"));
                self.reannounce_window(sc, start, from, out);
                return Ok(());
            }
            if sub.awin.is_far_above(first) {
                return Err(IrmcError::OutOfWindow { sc, p: first });
            }
        }
        // Hash the payloads and rebuild the tree (once per range).
        out.emit(Action::Charge(cost.hash, "range_hash"));
        let leaves = msgs.leaves();
        let root = msgs.root();
        let rd = range_digest(sc, first, count as u32, &root);
        if self.root_cache.contains(&rd) {
            // Same signed statement as before: root comparison suffices.
            out.emit(Action::Charge(self.cfg.cost.vouch_verify(), "vouch_verify"));
        } else {
            out.emit(Action::Charge(self.cfg.cost.rsa_verify(), "range_verify"));
            if !self.keyring.verify(key, &rd, &sig) {
                return Err(IrmcError::BadSignature { sc, p: first });
            }
            self.root_cache.insert(rd);
        }
        let sub = self.sub(sc);
        sub.vouches.entry(first.0).or_default().entry(from).or_insert((count as u32, root));
        Self::buffer_content(sub, from, first.0, msgs.clone());
        self.try_deliver_dedup(sc, first.0, out);
        if !Self::range_delivered(self.sub(sc), first.0, count as u64) {
            // Not (yet) deliverable as a range — the other senders may
            // have cut their ranges at diverged boundaries, so this exact
            // statement might never quorate. The verified signature also
            // attests every member slot individually: credit them so
            // overlapping foreign statements can converge on per-slot
            // quorums (as on a channel without dedup).
            for (i, (leaf, m)) in leaves.iter().zip(msgs.iter()).enumerate() {
                let _ = self.credit_rc_slot(
                    from,
                    sc,
                    Position(first.0 + i as u64),
                    *leaf,
                    m.clone(),
                    out,
                );
            }
        }
        Ok(())
    }

    /// A digest-only range confirmation from a non-carrier sender
    /// (MAC-authenticated; see [`ChannelMsg::Vouch`]).
    fn on_vouch(
        &mut self,
        from: usize,
        sc: Subchannel,
        first: Position,
        count: u32,
        root: Digest,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        if !self.cfg.dedup() {
            return Err(IrmcError::WrongVariant);
        }
        self.cfg.check_count(sc, first, count as u64)?;
        out.emit(Action::Charge(self.cfg.cost.vouch_verify(), "vouch_verify"));
        let sub = self.sub(sc);
        if first.0 + count as u64 <= sub.awin.start().0 {
            // Entirely below the window: late duplicate. Remind the
            // voucher where our window starts in case its view went
            // stale during a partition.
            let start = sub.awin.start();
            self.reannounce_window(sc, start, from, out);
            return Ok(());
        }
        if sub.awin.is_far_above(first) {
            return Err(IrmcError::OutOfWindow { sc, p: first });
        }
        sub.vouches.entry(first.0).or_default().entry(from).or_insert((count, root));
        self.try_deliver_dedup(sc, first.0, out);
        Ok(())
    }

    /// Reminds a stale sender where this receiver's window starts.
    /// Recast content (a sender retransmitting after a healed partition
    /// that also ate our original `Move`s) lands below the window here;
    /// without the reminder the sender would re-cast forever, because it
    /// only learns of window movement through `Move` messages.
    fn reannounce_window(
        &self,
        sc: Subchannel,
        start: Position,
        to: usize,
        out: &mut dyn Sink<Action<M>>,
    ) {
        out.emit(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        out.emit(Action::ToSender { to, msg: ReceiverMsg::Move { sc, p: start } });
    }

    /// Every in-window slot of `[first, first + count)` already
    /// delivered? (Slots the window moved past count as handled.) With
    /// diverged range boundaries, per-slot crediting can deliver a
    /// *prefix* of a range, so "is slot `first` ready" is not a valid
    /// proxy for "is this range done".
    fn range_delivered(sub: &ReceiverSub<M>, first: u64, count: u64) -> bool {
        let lo = first.max(sub.awin.start().0);
        let hi = first + count;
        hi <= lo || sub.slots.ready_in(lo, hi) == (hi - lo) as usize
    }

    /// The statement `(count, root)` vouched for range `first` by more
    /// than `fs` distinct senders, if any (at most one can reach the
    /// quorum: statements differ ⇒ senders differ).
    fn quorate_statement(sub: &ReceiverSub<M>, fs: usize, first: u64) -> Option<(u32, Digest)> {
        let stmts = sub.vouches.get(&first)?;
        stmts
            .values()
            .find(|&&(c, r)| stmts.values().filter(|&&(c2, r2)| c2 == c && r2 == r).count() > fs)
            .copied()
    }

    /// Buffers one content candidate per sender (a faulty sender can only
    /// ever replace its own slot, never evict honest content).
    fn buffer_content(sub: &mut ReceiverSub<M>, from: usize, first: u64, run: Run<M>) {
        let candidates = sub.pending_content.entry(first).or_default();
        match candidates.iter_mut().find(|c| c.from == from) {
            Some(mine) => mine.run = run,
            None => candidates.push(PendingContent { from, run }),
        }
    }

    /// Delivers range `first` once a vouch quorum AND a content copy
    /// hashing to the quorate root are both present (first arrival wins).
    /// A quorum without content arms the carrier-supervision timer.
    fn try_deliver_dedup(&mut self, sc: Subchannel, first: u64, out: &mut dyn Sink<Action<M>>) {
        let fs = self.cfg.fs;
        let Some(sub) = self.subs.get_mut(&sc) else {
            return;
        };
        let span =
            sub.vouches.get(&first).into_iter().flat_map(|s| s.values()).map(|&(c, _)| c).max();
        if Self::range_delivered(sub, first, span.unwrap_or(0) as u64) {
            return;
        }
        let Some((count, root)) = Self::quorate_statement(sub, fs, first) else {
            // Vouched but not quorate: the senders may have cut their
            // ranges at diverged boundaries (replica-local back-pressure),
            // in which case no statement ever reaches fs + 1. Supervise:
            // the timer refetches each voucher's own copy, and matching
            // copies converge on per-slot quorums (`credit_rc_slot`).
            if !sub.timer_armed {
                sub.timer_armed = true;
                out.emit(Action::SetTimer { token: sc, delay: REFETCH_DELAY });
            }
            return;
        };
        let matched = sub.pending_content.get(&first).and_then(|cands| {
            cands
                .iter()
                .find(|c| c.run.root() == root && c.run.len() == count as usize)
                .map(|c| c.run.clone())
        });
        match matched {
            Some(msgs) => {
                sub.pending_content.remove(&first);
                sub.fetch_cursor.remove(&first);
                self.deliver_range(sc, first, &msgs, out);
            }
            None if !sub.timer_armed => {
                // fs + 1 senders confirmed the range but nobody's content
                // arrived yet: supervise the carrier, refetch on expiry.
                sub.timer_armed = true;
                out.emit(Action::SetTimer { token: sc, delay: REFETCH_DELAY });
            }
            None => {}
        }
    }

    /// Books verified content from `from` for slot `(sc, p)` and delivers
    /// once `fs + 1` senders vouch for identical content.
    fn credit_rc_slot(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        digest: Digest,
        msg: M,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        let fs = self.cfg.fs;
        let sub = self.sub(sc);
        if sub.awin.is_below(p) {
            // Below the window: a late duplicate, normal under
            // retransmission. Remind the sender where our window starts
            // in case its view of it went stale during a partition.
            let start = sub.awin.start();
            self.reannounce_window(sc, start, from, out);
            return Ok(());
        }
        if sub.awin.is_far_above(p) {
            // Absurdly far above the window (memory guard; correct
            // senders are window-limited anyway).
            return Err(IrmcError::OutOfWindow { sc, p });
        }
        let Some(slot) = sub.slots.entry(p.0) else {
            return Ok(()); // Below the window: answered above.
        };
        // One copy per sender, the first it sent, in sender order.
        if let Err(at) = slot.copies.binary_search_by_key(&from, |(s, ..)| *s) {
            slot.copies.insert(at, (from, digest, msg));
        }
        // Quorum: fs + 1 senders with identical content. A quorum means
        // at least one copy carries `digest`, so the `find` below cannot
        // miss — but delivery is driven off it rather than an assertion,
        // keeping the path total.
        let quorate = slot.copies.iter().filter(|(_, d, _)| *d == digest).count() > fs;
        if quorate && slot.ready.is_none() {
            let found = slot.copies.iter().find(|(_, d, _)| *d == digest).map(|(.., m)| m.clone());
            if let Some(m) = found {
                slot.ready = Some(m);
                out.emit(Action::Ready { sc, p });
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // IRMC-SC
    // ------------------------------------------------------------------

    /// A collector's certificate for a run: one verification per share
    /// (at most `fs + 1`) certifies all of it. It either carries its
    /// content (a one-slot certificate) or pairs with the content of a
    /// [`ChannelMsg::Content`], whichever arrives first.
    #[allow(clippy::too_many_arguments)]
    fn on_certificate(
        &mut self,
        sc: Subchannel,
        first: Position,
        count: u32,
        root: Digest,
        shares: Vec<Signature>,
        content: Option<Run<M>>,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        if self.cfg.variant() != Variant::SenderCollect {
            return Err(IrmcError::WrongVariant);
        }
        self.cfg.check_count(sc, first, count as u64)?;
        // Verify transport MAC + every contained share; inline content is
        // hashed here, and its root is what the shares must cover.
        let (mac, root) = match &content {
            Some(msgs) if msgs.len() != count as usize => {
                return Err(IrmcError::MalformedRange { sc, first, count: msgs.len() as u64 });
            }
            Some(msgs) => (RunCost::of(&self.cfg.cost, msgs).hash, msgs.root()),
            None => (self.cfg.cost.hmac(32), root),
        };
        let verify = self.cfg.cost.rsa_verify() * shares.len() as u64;
        out.emit(Action::Charge(mac + verify, "cert_verify"));
        if !self.valid_share_quorum(&shares, &range_digest(sc, first, count, &root)) {
            return Err(IrmcError::BadSignature { sc, p: first });
        }
        let n_senders = self.cfg.n_senders;
        let sub = self.sub(sc);
        if first.0 + count as u64 <= sub.awin.start().0 {
            return Ok(()); // Entirely below the window: late duplicate.
        }
        if sub.awin.is_far_above(first) {
            return Err(IrmcError::OutOfWindow { sc, p: first });
        }
        // Certified: deliver the content — inline, or the matching
        // buffered copy — or remember the certificate until the content
        // arrives (reordered links).
        let content = content.or_else(|| {
            let cands = sub.pending_content.get(&first.0)?;
            let hit =
                cands.iter().find(|c| c.run.root() == root && c.run.len() == count as usize)?;
            let hit = hit.run.clone();
            sub.pending_content.remove(&first.0);
            Some(hit)
        });
        match content {
            Some(msgs) => self.deliver_range(sc, first.0, &msgs, out),
            None => {
                // Keep every distinct certified statement (diverged
                // boundaries may certify several lengths for one start),
                // bounded by the sender-group size.
                let certs = sub.pending_certs.entry(first.0).or_default();
                if !certs.contains(&(count, root)) && certs.len() < n_senders {
                    certs.push((count, root));
                }
            }
        }
        Ok(())
    }

    /// Counts `fs + 1` valid shares from distinct senders over `statement`.
    fn valid_share_quorum(&self, shares: &[Signature], statement: &Digest) -> bool {
        let mut signers = BTreeSet::new();
        let valid = shares
            .iter()
            .filter(|sig| {
                let idx = self.cfg.sender_keys.iter().position(|k| *k == sig.signer);
                match idx {
                    Some(i) if signers.insert(i) => self.keyring.verify(sig.signer, statement, sig),
                    _ => false,
                }
            })
            .count();
        valid > self.cfg.fs
    }

    /// Raw content without proof. IRMC-SC: early-shipped content (§A.9
    /// overlap) — hash it, remember it, but deliver **nothing** until a
    /// valid certificate covers its root. IRMC-RC dedup: a voucher's
    /// (re)shipped copy — hash it once and deliver iff it matches the
    /// vouch quorum's root.
    fn on_content(
        &mut self,
        from: usize,
        sc: Subchannel,
        first: Position,
        msgs: Run<M>,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        let dedup = self.cfg.dedup();
        if self.cfg.variant() != Variant::SenderCollect && !dedup {
            return Err(IrmcError::WrongVariant);
        }
        let count = msgs.len();
        self.cfg.check_count(sc, first, count as u64)?;
        let cost = RunCost::of(&self.cfg.cost, &msgs);
        if dedup {
            let sub = self.sub(sc);
            if Self::range_delivered(sub, first.0, count as u64) {
                // Late duplicate or already-delivered range: drop after
                // the transport MAC, members are NOT re-hashed.
                out.emit(Action::Charge(self.cfg.cost.hmac(cost.bytes), "payload_hash"));
                return Ok(());
            }
            if sub.awin.is_far_above(first) {
                return Err(IrmcError::OutOfWindow { sc, p: first });
            }
        }
        // Transport MAC + payload hashing + tree rebuild; no signature.
        out.emit(Action::Charge(cost.hash, "range_hash"));
        let root = msgs.root();
        if dedup {
            let fs = self.cfg.fs;
            let sub = self.sub(sc);
            if let Some((qc, qroot)) = Self::quorate_statement(sub, fs, first.0) {
                if qc as usize != count || qroot != root {
                    // The shipping sender contradicts what fs+1 senders
                    // vouched: it is faulty. Keep waiting/refetching.
                    return Err(IrmcError::VouchMismatch { sc, first });
                }
                sub.pending_content.remove(&first.0);
                sub.fetch_cursor.remove(&first.0);
                self.deliver_range(sc, first.0, &msgs, out);
                return Ok(());
            }
            // No quorum yet: content raced ahead of the vouches, or the
            // senders cut their ranges at diverged boundaries and no
            // statement will ever quorate.
            let own = sub.vouches.get(&first.0).and_then(|stmts| stmts.get(&from)).copied();
            Self::buffer_content(sub, from, first.0, msgs.clone());
            if own == Some((count as u32, root)) {
                // The copy matches `from`'s own vouched statement: it is a
                // per-slot attestation by `from`, exactly like its signed
                // cast — credit each slot so overlapping statements
                // converge on per-slot quorums despite diverged cuts. (Only
                // this rare branch needs the per-slot digests of a copy
                // that was hashed for its root alone.)
                for (i, (leaf, m)) in msgs.leaves().iter().zip(msgs.iter()).enumerate() {
                    let _ = self.credit_rc_slot(
                        from,
                        sc,
                        Position(first.0 + i as u64),
                        *leaf,
                        m.clone(),
                        out,
                    );
                }
            }
            return Ok(());
        }
        let sub = self.sub(sc);
        if first.0 + count as u64 <= sub.awin.start().0 {
            return Ok(()); // Entirely below the window: late duplicate.
        }
        if sub.awin.is_far_above(first) {
            return Err(IrmcError::OutOfWindow { sc, p: first });
        }
        // A certificate that arrived first unlocks the content now.
        if let Some(certs) = sub.pending_certs.get_mut(&first.0) {
            if let Some(i) = certs.iter().position(|c| *c == (count as u32, root)) {
                certs.remove(i);
                if certs.is_empty() {
                    sub.pending_certs.remove(&first.0);
                }
                self.deliver_range(sc, first.0, &msgs, out);
                return Ok(());
            }
        }
        // Buffer one candidate per *sender*: a faulty collector flooding
        // bogus roots can only ever replace its own slot, never evict
        // honest content.
        Self::buffer_content(sub, from, first.0, msgs);
        Ok(())
    }

    /// Delivers every slot of a certified (or vouch-quorate) range that
    /// is still in-window.
    fn deliver_range(
        &mut self,
        sc: Subchannel,
        first: u64,
        msgs: &[M],
        out: &mut dyn Sink<Action<M>>,
    ) {
        let sub = self.sub(sc);
        for (i, m) in msgs.iter().enumerate() {
            let p = first + i as u64;
            let Some(slot) = sub.slots.entry(p) else {
                continue; // The window moved past this slot.
            };
            // A later delivery overwrites; only the first announces.
            if slot.ready.replace(m.clone()).is_none() {
                out.emit(Action::Ready { sc, p: Position(p) });
            }
        }
    }

    fn on_progress(
        &mut self,
        from: usize,
        positions: Vec<(Subchannel, Position)>,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        if self.cfg.variant() != Variant::SenderCollect {
            return Err(IrmcError::WrongVariant);
        }
        out.emit(Action::Charge(self.cfg.cost.hmac(positions.len() * 16), "progress_mac"));
        for (sc, p) in positions {
            let fs = self.cfg.fs;
            let sub = self.sub(sc);
            match sub.progress.get_mut(from) {
                Some(prev) if p > *prev => *prev = p,
                Some(_) => {}
                None => return Err(IrmcError::UnknownEndpoint { index: from }),
            }
            // fs+1-highest claim, selected on the reused scratch buffer.
            sub.scratch.clear();
            sub.scratch.extend_from_slice(&sub.progress);
            let (_, nth, _) = sub.scratch.select_nth_unstable_by(fs, |a, b| b.cmp(a));
            sub.merged_progress = *nth;
            // Missing certificates up to the merged progress?
            let missing = Self::first_missing(sub);
            if missing.is_some() && !sub.timer_armed {
                sub.timer_armed = true;
                out.emit(Action::SetTimer { token: sc, delay: COLLECTOR_TIMEOUT });
            }
        }
        Ok(())
    }

    fn on_sender_move(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        out.emit(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        let fs = self.cfg.fs;
        let sub = self.sub(sc);
        match sub.sender_moves.get_mut(from) {
            Some(prev) if p > *prev => *prev = p,
            Some(_) => return Ok(()),
            None => return Err(IrmcError::UnknownEndpoint { index: from }),
        }
        // fs+1-highest sender request: at least one correct sender asked
        // for this shift (IRMC-Liveness III). Selection on the reused
        // scratch buffer instead of clone + full sort.
        sub.scratch.clear();
        sub.scratch.extend_from_slice(&sub.sender_moves);
        let (_, nth, _) = sub.scratch.select_nth_unstable_by(fs, |a, b| b.cmp(a));
        let nw = *nth;
        if nw > sub.awin.start() {
            self.move_window(sc, nw, out);
        }
        Ok(())
    }

    /// First position in `[window start, merged progress]` without a
    /// certified message, if any. Resumes from the cached gap-free cursor
    /// instead of rescanning from the window start.
    fn first_missing(sub: &mut ReceiverSub<M>) -> Option<Position> {
        let lo = sub.missing_cursor.max(sub.awin.start().0);
        let hi = sub.merged_progress.0;
        let mut p = lo;
        while p <= hi && sub.slots.ready(p).is_some() {
            p += 1;
        }
        sub.missing_cursor = p;
        (p <= hi).then_some(Position(p))
    }

    /// Handles the supervision timer for subchannel `token`: collector
    /// supervision for IRMC-SC (Fig 20 L30-35), carrier supervision for
    /// RC dedup.
    ///
    /// `Err(CarrierTimeout)` reports that a vouch-quorate range's content
    /// never arrived and a refetch was issued — informational (the
    /// protocol recovers on its own), carrying the first stalled range.
    pub fn on_timer(&mut self, token: u64, out: &mut dyn Sink<Action<M>>) -> Result<(), IrmcError> {
        match self.cfg.variant() {
            Variant::SenderCollect => {
                self.on_sc_timer(token, out);
                Ok(())
            }
            Variant::ReceiverCollect if self.cfg.dedup() => self.on_dedup_timer(token, out),
            Variant::ReceiverCollect => Ok(()),
        }
    }

    /// IRMC-SC collector supervision (Fig 20 L30-35).
    fn on_sc_timer(&mut self, token: u64, out: &mut dyn Sink<Action<M>>) {
        let sc = token;
        let n_senders = self.cfg.n_senders;
        let Some(sub) = self.subs.get_mut(&sc) else {
            return;
        };
        sub.timer_armed = false;
        if Self::first_missing(sub).is_none() {
            return;
        }
        // The collector failed to provide certificates that fs+1 senders
        // claim exist: switch to the next sender.
        sub.collector = (sub.collector + 1) % n_senders;
        let new_collector = sub.collector;
        sub.timer_armed = true;
        out.emit(Action::Charge(self.cfg.cost.hmac(32), "select_mac"));
        for s in 0..n_senders {
            out.emit(Action::ToSender {
                to: s,
                msg: ReceiverMsg::Select { sc, collector: new_collector },
            });
        }
        out.emit(Action::SetTimer { token: sc, delay: COLLECTOR_TIMEOUT });
    }

    /// RC dedup carrier supervision: for every vouch-quorate range whose
    /// content still has not arrived, ask the next voucher (round-robin)
    /// to ship it, then re-arm.
    fn on_dedup_timer(
        &mut self,
        token: u64,
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        let sc = token;
        let fs = self.cfg.fs;
        let Some(sub) = self.subs.get_mut(&sc) else {
            return Ok(());
        };
        sub.timer_armed = false;
        let firsts: Vec<u64> = sub.vouches.keys().copied().collect();
        let mut fetched: Vec<(u64, u32, usize)> = Vec::new();
        for first in firsts {
            let span =
                sub.vouches.get(&first).into_iter().flat_map(|s| s.values()).map(|&(c, _)| c).max();
            if Self::range_delivered(sub, first, span.unwrap_or(0) as u64) {
                continue; // Delivered while the timer was pending.
            }
            // With a quorate statement, rotate through its vouchers —
            // each retains the content, and any one copy completes the
            // range. Without one (boundaries diverged between senders),
            // ask *every* voucher for its own statement at once: a copy
            // matching its sender's vouch credits that sender per slot,
            // and fs + 1 overlapping copies are needed before the slots
            // converge on per-slot quorums, so serializing the fetches
            // would only multiply the stall by the timer period.
            match Self::quorate_statement(sub, fs, first) {
                Some((count, root)) => {
                    let vouchers: Vec<usize> = sub
                        .vouches
                        .get(&first)
                        .map(|stmts| {
                            stmts
                                .iter()
                                .filter(|(_, &(c, r))| c == count && r == root)
                                .map(|(&s, _)| s)
                                .collect()
                        })
                        .unwrap_or_default();
                    if vouchers.is_empty() {
                        continue;
                    }
                    let cursor = sub.fetch_cursor.entry(first).or_insert(0);
                    let Some(&target) = vouchers.get(*cursor % vouchers.len()) else {
                        continue;
                    };
                    *cursor += 1;
                    fetched.push((first, count, target));
                }
                None => {
                    for (&s, &(c, _)) in sub.vouches.get(&first).into_iter().flatten() {
                        fetched.push((first, c, s));
                    }
                }
            }
        }
        let Some(&(stalled_first, _, _)) = fetched.first() else {
            return Ok(()); // All quiet: let the timer lapse.
        };
        out.emit(Action::Charge(self.cfg.cost.hmac(32) * fetched.len() as u64, "refetch"));
        for &(first, count, target) in &fetched {
            out.emit(Action::ToSender {
                to: target,
                msg: ReceiverMsg::FetchRange { sc, first: Position(first), count },
            });
        }
        if let Some(sub) = self.subs.get_mut(&sc) {
            sub.timer_armed = true;
        }
        out.emit(Action::SetTimer { token: sc, delay: REFETCH_DELAY });
        Err(IrmcError::CarrierTimeout { sc, first: Position(stalled_first) })
    }

    /// The collector this endpoint currently expects to serve `sc`.
    pub fn collector(&self, sc: Subchannel) -> usize {
        self.subs.get(&sc).map(|s| s.collector).unwrap_or(self.me % self.cfg.n_senders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::carrier_for;
    use crate::sender::SenderEndpoint;
    use crate::tests_support::{blobs, Blob};
    use crate::ChannelMode;
    use spider_crypto::{CostModel, KeyId};
    use spider_types::WireSize;

    type Out = Vec<Action<Blob>>;

    const RC: ChannelMode = ChannelMode::ReliableCast { dedup: false };
    const DEDUP: ChannelMode = ChannelMode::ReliableCast { dedup: true };
    const SC: ChannelMode = ChannelMode::SenderCast { overlap: true };

    fn cfg(mode: ChannelMode) -> IrmcConfig {
        IrmcConfig::new(mode, 3, 1, 3, 1, 8).with_cost(CostModel::zero())
    }

    fn receiver(c: &IrmcConfig) -> ReceiverEndpoint<Blob> {
        ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5))
    }

    /// Everything a correct sender `idx` of channel `c` ships to receiver
    /// 0 when it submits `msgs` at `first`.
    fn frames(
        c: &IrmcConfig,
        idx: usize,
        sc: Subchannel,
        first: u64,
        msgs: &[Blob],
    ) -> Vec<ChannelMsg<Blob>> {
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), idx, Keyring::new(5));
        let mut out = Vec::new();
        s.send_batch(sc, Position(first), msgs.to_vec(), &mut out);
        to_receiver_0(out)
    }

    fn to_receiver_0(out: Out) -> Vec<ChannelMsg<Blob>> {
        out.into_iter()
            .filter_map(|a| match a {
                Action::ToReceiver { to: 0, msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Delivers `frames` from sender `from`; returns what `r` emits.
    fn feed(r: &mut ReceiverEndpoint<Blob>, from: usize, frames: Vec<ChannelMsg<Blob>>) -> Out {
        let mut out = Vec::new();
        for m in frames {
            let _ = r.on_sender_message(from, m, &mut out);
        }
        out
    }

    /// What `r` holds for `first..first + n`.
    fn got(
        r: &mut ReceiverEndpoint<Blob>,
        sc: Subchannel,
        first: u64,
        n: u64,
    ) -> Vec<Option<Blob>> {
        (first..first + n).map(|p| r.try_receive(sc, Position(p)).into_payload()).collect()
    }

    fn all(msgs: &[Blob]) -> Vec<Option<Blob>> {
        msgs.iter().cloned().map(Some).collect()
    }

    fn charge_sum(out: &Out) -> SimTime {
        out.iter().fold(SimTime::ZERO, |acc, a| match a {
            Action::Charge(t, _) => acc + *t,
            _ => acc,
        })
    }

    #[test]
    fn rc_delivers_after_fs_plus_one_matching_sends() {
        let (c, m) = (cfg(RC), blobs(1, 1));
        let mut r = receiver(&c);
        feed(&mut r, 0, frames(&c, 0, 3, 1, &m));
        assert_eq!(got(&mut r, 3, 1, 1), [None], "one sender is not enough");
        let out = feed(&mut r, 1, frames(&c, 1, 3, 1, &m));
        assert!(out.iter().any(|a| matches!(a, Action::Ready { sc: 3, p } if *p == Position(1))));
        assert_eq!(got(&mut r, 3, 1, 1), all(&m));
    }

    #[test]
    fn rc_conflicting_contents_never_deliver() {
        let c = cfg(RC);
        let mut r = receiver(&c);
        for (from, content) in [b"a", b"b", b"c"].into_iter().enumerate() {
            let out = feed(&mut r, from, frames(&c, from, 0, 1, &[Blob::new(content)]));
            assert!(!out.iter().any(|a| matches!(a, Action::Ready { .. })));
        }
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
    }

    #[test]
    fn rc_duplicate_sender_does_not_count_twice() {
        let c = cfg(RC);
        let mut r = receiver(&c);
        for n in [1, 3] {
            let copy = frames(&c, 0, 0, 1, &blobs(1, n));
            feed(&mut r, 0, [copy.clone(), copy].concat());
            assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
        }
    }

    #[test]
    fn rc_forged_signature_is_discarded() {
        let (c, m) = (cfg(RC), blobs(1, 1));
        let mut r = receiver(&c);
        // Sender 2's message relabeled as coming from sender 0: signature
        // check must fail (claims sender 0's key but is signed by 2).
        feed(&mut r, 0, frames(&c, 2, 0, 1, &m));
        feed(&mut r, 1, frames(&c, 1, 0, 1, &m));
        assert_eq!(
            r.try_receive(0, Position(1)),
            ReceiveResult::Pending,
            "forged copy must not count toward the quorum"
        );
    }

    #[test]
    fn below_window_reports_too_old() {
        let mut r = receiver(&cfg(RC));
        let mut out = Vec::new();
        r.move_window(0, Position(5), &mut out);
        assert_eq!(r.try_receive(0, Position(2)), ReceiveResult::TooOld(Position(5)));
        // Moves notify every sender.
        let moves = out
            .iter()
            .filter(|a| matches!(a, Action::ToSender { msg: ReceiverMsg::Move { .. }, .. }))
            .count();
        assert_eq!(moves, 3);
    }

    #[test]
    fn sender_moves_shift_window_at_fs_plus_one() {
        let mut r = receiver(&cfg(RC));
        feed(&mut r, 0, vec![ChannelMsg::Move { sc: 0, p: Position(9) }]);
        assert_eq!(r.window(0).start(), Position(1), "one sender cannot move the window");
        let out = feed(&mut r, 1, vec![ChannelMsg::Move { sc: 0, p: Position(7) }]);
        // fs+1 = 2-highest of [9, 7, 0] = 7.
        assert_eq!(r.window(0).start(), Position(7));
        assert!(out
            .iter()
            .any(|a| matches!(a, Action::WindowMoved { start, .. } if *start == Position(7))));
    }

    #[test]
    fn sc_certificate_with_too_few_valid_shares_rejected() {
        let ring = Keyring::new(5);
        let mut r = receiver(&cfg(SC));
        for n in [1, 3] {
            let msgs = blobs(1, n);
            let root = Run::new(msgs.clone()).root();
            let good = ring.sign(KeyId(1000), &range_digest(0, Position(1), n as u32, &root));
            // The second share is over another position — invalid here;
            // and two shares from one sender are no better.
            let bad = ring.sign(KeyId(1001), &range_digest(0, Position(2), n as u32, &root));
            for shares in [vec![good, bad], vec![good, good]] {
                let res = r.on_sender_message(
                    0,
                    ChannelMsg::Certificate {
                        sc: 0,
                        first: Position(1),
                        count: n as u32,
                        root,
                        shares,
                        content: Some(Run::new(msgs.clone())),
                    },
                    &mut Vec::new(),
                );
                assert_eq!(res, Err(IrmcError::BadSignature { sc: 0, p: Position(1) }));
                assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
            }
        }
    }

    #[test]
    fn zero_slot_frames_are_malformed_whatever_their_kind() {
        let root = Digest::of_bytes(b"x");
        let first = Position(1);
        let none: Run<Blob> = Run::new(Vec::new());
        let sig = Keyring::new(5).sign(KeyId(1000), &root);
        for (mode, frame) in [
            (RC, ChannelMsg::Cast { sc: 0, first, msgs: none.clone(), sig }),
            (DEDUP, ChannelMsg::Vouch { sc: 0, first, count: 0, root }),
            (DEDUP, ChannelMsg::Content { sc: 0, first, msgs: none.clone() }),
            (SC, ChannelMsg::Content { sc: 0, first, msgs: none }),
            (
                SC,
                ChannelMsg::Certificate {
                    sc: 0,
                    first,
                    count: 0,
                    root,
                    shares: vec![],
                    content: None,
                },
            ),
        ] {
            let res = receiver(&cfg(mode)).on_sender_message(0, frame, &mut Vec::new());
            assert_eq!(res, Err(IrmcError::MalformedRange { sc: 0, first, count: 0 }));
        }
    }

    #[test]
    fn sc_progress_without_certificates_arms_timer_and_switches_collector() {
        let mut r = receiver(&cfg(SC));
        assert_eq!(r.collector(0), 0);
        // fs + 1 = 2 senders claim position 4 is certified.
        let mut out = Vec::new();
        for s in [1, 2] {
            out.extend(feed(
                &mut r,
                s,
                vec![ChannelMsg::Progress { positions: vec![(0, Position(4))] }],
            ));
        }
        assert!(out.contains(&Action::SetTimer { token: 0, delay: COLLECTOR_TIMEOUT }));
        // Timer fires; nothing arrived from collector 0 -> switch to 1.
        out.clear();
        let _ = r.on_timer(0, &mut out);
        assert_eq!(r.collector(0), 1);
        let selects = out
            .iter()
            .filter(|a| {
                matches!(a, Action::ToSender { msg: ReceiverMsg::Select { collector: 1, .. }, .. })
            })
            .count();
        assert_eq!(selects, 3, "announced to every sender");
    }

    // ------------------------------------------------------------------
    // Range verification
    // ------------------------------------------------------------------

    #[test]
    fn rc_range_delivers_after_fs_plus_one_matching_ranges() {
        let (c, msgs) = (cfg(RC), blobs(1, 4));
        let mut r = receiver(&c);
        feed(&mut r, 0, frames(&c, 0, 0, 1, &msgs));
        assert_eq!(got(&mut r, 0, 1, 4), [None, None, None, None], "one sender only");
        feed(&mut r, 1, frames(&c, 1, 0, 1, &msgs));
        assert_eq!(got(&mut r, 0, 1, 4), all(&msgs));
    }

    #[test]
    fn rc_range_and_single_sends_share_slot_quorums() {
        // One sender ships a range, another a matching single slot: the
        // per-slot quorum must combine them (senders may cut differently).
        let (c, msgs) = (cfg(RC), blobs(1, 3));
        let mut r = receiver(&c);
        feed(&mut r, 0, frames(&c, 0, 0, 1, &msgs));
        feed(&mut r, 1, frames(&c, 1, 0, 2, &msgs[1..2]));
        assert_eq!(got(&mut r, 0, 1, 3), [None, Some(msgs[1].clone()), None]);
    }

    #[test]
    fn rc_tampered_range_member_rejects_the_whole_range() {
        let (c, msgs) = (cfg(RC), blobs(1, 4));
        let mut r = receiver(&c);
        // Honest range from sender 0.
        feed(&mut r, 0, frames(&c, 0, 0, 1, &msgs));
        // Sender 1's range with slot 2 tampered after signing.
        let [ChannelMsg::Cast { sc, first, msgs: signed, sig }] = &frames(&c, 1, 0, 1, &msgs)[..]
        else {
            panic!("one cast expected")
        };
        let mut tampered: Vec<Blob> = signed.to_vec();
        tampered[2] = Blob::new(b"evil");
        let cast = ChannelMsg::Cast { sc: *sc, first: *first, msgs: Run::new(tampered), sig: *sig };
        let res = r.on_sender_message(1, cast, &mut Vec::new());
        assert_eq!(res, Err(IrmcError::BadSignature { sc: 0, p: Position(1) }));
        assert_eq!(
            got(&mut r, 0, 1, 4),
            [None, None, None, None],
            "tampering one member must reject every slot of the range"
        );
    }

    /// Senders 0 and 1 of an overlapped SC channel have both submitted
    /// `msgs` at position 1: what sender 0 shipped to receiver 0 right
    /// away, and what it shipped once sender 1's share arrived.
    fn sc_shipments(msgs: &[Blob]) -> (Vec<ChannelMsg<Blob>>, Vec<ChannelMsg<Blob>>) {
        let c = cfg(SC);
        let mut s0: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), 0, Keyring::new(5));
        let mut s1: SenderEndpoint<Blob> = SenderEndpoint::new(c, 1, Keyring::new(5));
        let (mut out0, mut out1, mut certs) = (Vec::new(), Vec::new(), Vec::new());
        s0.send_batch(0, Position(1), msgs.to_vec(), &mut out0);
        s1.send_batch(0, Position(1), msgs.to_vec(), &mut out1);
        for a in out1 {
            if let Action::ToPeerSender { to: 0, msg } = a {
                let _ = s0.on_peer_message(1, msg, &mut certs);
            }
        }
        (to_receiver_0(out0), to_receiver_0(certs))
    }

    #[test]
    fn sc_overlap_content_never_delivers_before_certificate() {
        let msgs = blobs(1, 4);
        let (content, cert) = sc_shipments(&msgs);
        assert!(matches!(content[..], [ChannelMsg::Content { .. }]), "overlap ships content early");
        let mut r = receiver(&cfg(SC));
        // ONLY the early content: nothing may deliver.
        let out = feed(&mut r, 0, content);
        assert!(!out.iter().any(|a| matches!(a, Action::Ready { .. })));
        assert_eq!(got(&mut r, 0, 1, 4), [None, None, None, None], "uncertified content");
        // The shares-only certificate unlocks it.
        assert!(matches!(cert[..], [ChannelMsg::Certificate { content: None, .. }]));
        feed(&mut r, 0, cert);
        assert_eq!(got(&mut r, 0, 1, 4), all(&msgs));
    }

    #[test]
    fn sc_certificate_before_content_waits_and_then_delivers() {
        let msgs = blobs(1, 3);
        let (content, cert) = sc_shipments(&msgs);
        let mut r = receiver(&cfg(SC));
        // Reordered link: the certificate overtakes the content.
        feed(&mut r, 0, cert);
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
        feed(&mut r, 0, content);
        assert_eq!(got(&mut r, 0, 1, 3), all(&msgs));
    }

    #[test]
    fn sc_one_slot_certificate_delivers_its_inline_content() {
        let msgs = blobs(1, 1);
        let (early, cert) = sc_shipments(&msgs);
        assert!(early.is_empty(), "one slot is never shipped ahead of its certificate");
        assert!(matches!(cert[..], [ChannelMsg::Certificate { content: Some(_), .. }]));
        let mut r = receiver(&cfg(SC).with_cost(CostModel::default()));
        let out = feed(&mut r, 0, cert);
        let cost = CostModel::default();
        assert_eq!(charge_sum(&out), cost.hmac(msgs[0].wire_size()) + cost.rsa_verify() * 2);
        assert_eq!(got(&mut r, 0, 1, 1), all(&msgs));
    }

    #[test]
    fn sc_bogus_content_flood_cannot_evict_honest_pending_content() {
        // A faulty sender ships many bogus content candidates for the
        // same range before the honest collector's content arrives; the
        // honest content must still unlock when its certificate lands.
        let msgs = blobs(1, 4);
        let (content, cert) = sc_shipments(&msgs);
        let mut r = receiver(&cfg(SC));
        for k in 0..8u64 {
            let bogus = Run::new(blobs(100 + 10 * k, 4));
            feed(&mut r, 2, vec![ChannelMsg::Content { sc: 0, first: Position(1), msgs: bogus }]);
        }
        feed(&mut r, 0, content);
        feed(&mut r, 0, cert);
        assert_eq!(got(&mut r, 0, 1, 4), all(&msgs));
    }

    #[test]
    fn sc_range_certificate_with_wrong_content_rejected() {
        let (_, cert) = sc_shipments(&blobs(1, 3));
        let mut r = receiver(&cfg(SC));
        // A faulty collector ships different content than was certified.
        let other = Run::new(blobs(7, 3));
        feed(&mut r, 0, vec![ChannelMsg::Content { sc: 0, first: Position(1), msgs: other }]);
        feed(&mut r, 0, cert);
        assert_eq!(
            got(&mut r, 0, 1, 3),
            [None, None, None],
            "mismatching content must not deliver under the certificate"
        );
    }

    // ------------------------------------------------------------------
    // RC digest-only fan-in (dedup)
    // ------------------------------------------------------------------

    /// The rotated carrier of the range starting at 1, and the vouchers.
    fn roles() -> (usize, Vec<usize>) {
        let carrier = carrier_for(0, Position(1), 3);
        (carrier, (0..3).filter(|&s| s != carrier).collect())
    }

    /// A dedup receiver that got the vouchers' statements for `msgs` but
    /// not the carrier's content; also what it emitted.
    fn vouched(c: &IrmcConfig, msgs: &[Blob]) -> (ReceiverEndpoint<Blob>, Out) {
        let mut r = receiver(c);
        let mut out = Vec::new();
        for v in roles().1 {
            out.extend(feed(&mut r, v, frames(c, v, 0, 1, msgs)));
        }
        (r, out)
    }

    fn content(msgs: &[Blob]) -> Vec<ChannelMsg<Blob>> {
        vec![ChannelMsg::Content { sc: 0, first: Position(1), msgs: Run::new(msgs.to_vec()) }]
    }

    #[test]
    fn dedup_carrier_content_plus_one_vouch_delivers_primary() {
        let (c, msgs) = (cfg(DEDUP), blobs(1, 4));
        let (carrier, vouchers) = roles();
        let mut r = receiver(&c);
        feed(&mut r, carrier, frames(&c, carrier, 0, 1, &msgs));
        assert_eq!(
            r.try_receive(0, Position(1)),
            ReceiveResult::Pending,
            "the carrier alone is one statement — not a quorum"
        );
        let out = feed(&mut r, vouchers[0], frames(&c, vouchers[0], 0, 1, &msgs));
        assert!(out.iter().any(|a| matches!(a, Action::Ready { sc: 0, p } if *p == Position(1))));
        assert_eq!(got(&mut r, 0, 1, 4), all(&msgs));
        // The carrier's copy delivered: nothing is fetched, nothing awaited.
        let mut out = Vec::new();
        assert_eq!(r.on_timer(0, &mut out), Ok(()));
        assert!(out.is_empty(), "no FetchRange on the primary path: {out:?}");
    }

    #[test]
    fn dedup_vouch_order_does_not_matter() {
        // Vouches land before the carrier's content: delivery happens the
        // moment the content arrives, not before.
        let (c, msgs) = (cfg(DEDUP), blobs(1, 3));
        let (mut r, _) = vouched(&c, &msgs);
        assert_eq!(got(&mut r, 0, 1, 3), [None, None, None], "vouches alone carry no content");
        feed(&mut r, roles().0, frames(&c, roles().0, 0, 1, &msgs));
        assert_eq!(got(&mut r, 0, 1, 3), all(&msgs));
    }

    #[test]
    fn dedup_quorum_without_content_arms_timer_and_refetches() {
        let (c, msgs) = (cfg(DEDUP), blobs(1, 4));
        let (mut r, out) = vouched(&c, &msgs);
        // fs + 1 = 2 vouches form a quorum with no content: supervise.
        let armed = Action::SetTimer { token: 0, delay: REFETCH_DELAY };
        assert!(out.contains(&armed), "quorum without content must arm the supervision timer");
        let mut out = Vec::new();
        assert_eq!(
            r.on_timer(0, &mut out),
            Err(IrmcError::CarrierTimeout { sc: 0, first: Position(1) }),
            "the stalled range is reported"
        );
        let fetches: Vec<usize> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToSender { to, msg } => {
                    assert_eq!(
                        *msg,
                        ReceiverMsg::FetchRange { sc: 0, first: Position(1), count: 4 }
                    );
                    Some(*to)
                }
                _ => None,
            })
            .collect();
        assert!(matches!(fetches[..], [v] if roles().1.contains(&v)), "one voucher is asked");
        assert!(out.contains(&armed), "the timer re-arms until the content lands");
        assert_eq!(got(&mut r, 0, 1, 4), [None, None, None, None], "nothing before the fetch");
        // The voucher answers with raw content: delivered now.
        feed(&mut r, fetches[0], content(&msgs));
        assert_eq!(got(&mut r, 0, 1, 4), all(&msgs));
        // The next timer expiry finds nothing stalled and stays quiet.
        let mut out = Vec::new();
        assert_eq!(r.on_timer(0, &mut out), Ok(()));
        assert!(!out.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn dedup_successive_refetches_rotate_vouchers() {
        let (mut r, _) = vouched(&cfg(DEDUP), &blobs(1, 4));
        let mut targets = Vec::new();
        for _ in 0..2 {
            let mut out = Vec::new();
            let _ = r.on_timer(0, &mut out);
            targets.extend(out.iter().filter_map(|a| match a {
                Action::ToSender { to, msg: ReceiverMsg::FetchRange { .. } } => Some(*to),
                _ => None,
            }));
        }
        assert_eq!(targets.len(), 2);
        assert_ne!(targets[0], targets[1], "a dead voucher is not re-asked immediately");
    }

    #[test]
    fn dedup_tampered_content_is_rejected_as_vouch_mismatch() {
        let msgs = blobs(1, 4);
        let (mut r, _) = vouched(&cfg(DEDUP), &msgs);
        // A Byzantine sender ships content contradicting the quorum root.
        let bogus = content(&blobs(50, 4)).remove(0);
        let res = r.on_sender_message(roles().0, bogus, &mut Vec::new());
        assert_eq!(res, Err(IrmcError::VouchMismatch { sc: 0, first: Position(1) }));
        assert_eq!(r.try_receive(0, Position(1)), ReceiveResult::Pending);
        // The honest copy still delivers afterwards.
        feed(&mut r, roles().1[0], content(&msgs));
        assert_eq!(got(&mut r, 0, 1, 4), all(&msgs));
    }

    #[test]
    fn dedup_retransmitted_send_range_skips_the_second_signature_check() {
        // RootCache: the same signed range arriving twice (retransmission)
        // pays hashing twice but RSA verification only once.
        let c = cfg(DEDUP).with_cost(CostModel::default());
        let carrier = roles().0;
        let mut r = receiver(&c);
        let cast = frames(&c, carrier, 0, 1, &blobs(1, 4));
        let c1 = charge_sum(&feed(&mut r, carrier, cast.clone()));
        let c2 = charge_sum(&feed(&mut r, carrier, cast));
        assert_eq!(
            c1 + c.cost.vouch_verify(),
            c2 + c.cost.rsa_verify(),
            "second copy trades the RSA verification for a root comparison"
        );
    }

    #[test]
    fn dedup_late_copy_of_a_delivered_range_is_not_rehashed() {
        let c = cfg(DEDUP).with_cost(CostModel::default());
        let (carrier, msgs) = (roles().0, blobs(1, 4));
        let (mut r, _) = vouched(&c, &msgs);
        feed(&mut r, carrier, frames(&c, carrier, 0, 1, &msgs));
        assert_eq!(got(&mut r, 0, 1, 4), all(&msgs), "delivered");
        // A late duplicate of the carrier's frame: transport MAC plus the
        // MAC of the window re-announcement that reminds the stale sender
        // — no Merkle rebuild, no signature.
        let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
        let late = feed(&mut r, carrier, frames(&c, carrier, 0, 1, &msgs));
        assert_eq!(
            charge_sum(&late),
            c.cost.hmac(bytes) + c.cost.hmac(32),
            "the hash wall is gone for late copies"
        );
        let reminder = ReceiverMsg::Move { sc: 0, p: Position(1) };
        assert!(
            late.contains(&Action::ToSender { to: carrier, msg: reminder }),
            "the stale carrier is reminded where the window starts"
        );
    }

    #[test]
    fn dedup_vouch_in_legacy_mode_is_wrong_variant() {
        let vouch =
            ChannelMsg::Vouch { sc: 0, first: Position(1), count: 4, root: Digest::of_bytes(b"x") };
        let res = receiver(&cfg(RC)).on_sender_message(1, vouch, &mut Vec::new());
        assert_eq!(res, Err(IrmcError::WrongVariant));
    }

    #[test]
    fn legacy_delivery_reports_replicated_provenance() {
        // Without dedup, and for one slot with it: every sender casts, the
        // receiver verifies every copy and credits it per slot.
        for (mode, n) in [(RC, 1), (RC, 3), (DEDUP, 1)] {
            let c = cfg(mode).with_cost(CostModel::default());
            let msgs = blobs(1, n);
            let mut r = receiver(&c);
            let mut out = feed(&mut r, 0, frames(&c, 0, 0, 1, &msgs));
            out.extend(feed(&mut r, 1, frames(&c, 1, 0, 1, &msgs)));
            let (label, tree) = if n == 1 {
                ("slot_verify", SimTime::ZERO)
            } else {
                ("range_verify", c.cost.merkle(3))
            };
            let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
            let copy = Action::Charge(c.cost.hmac(bytes) + tree + c.cost.rsa_verify(), label);
            assert_eq!(
                out.iter().filter(|a| **a == copy).count(),
                2,
                "{mode} x{n}: both copies pay in full"
            );
            assert_eq!(got(&mut r, 0, 1, n), all(&msgs), "{mode} x{n}: delivered");
            let fetches = out.iter().filter(|a| matches!(a, Action::ToSender { .. })).count();
            assert_eq!(fetches, 0, "{mode} x{n}: from the copies, fetching nothing");
        }
    }

    // ------------------------------------------------------------------
    // A run is hashed once
    // ------------------------------------------------------------------

    /// Content that counts how often it is hashed; all copies of a slot
    /// share the slot's counter.
    #[derive(Debug, Clone)]
    struct Counted {
        pos: u64,
        hashed: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.pos == other.pos
        }
    }

    impl WireSize for Counted {
        fn wire_size(&self) -> usize {
            100
        }
    }

    impl spider_crypto::Digestible for Counted {
        fn digest(&self) -> Digest {
            self.hashed.set(self.hashed.get() + 1);
            Digest::builder().u64(self.pos).finish()
        }
    }

    /// One 32-slot range from four senders to three receivers costs four
    /// passes over the content and four trees — one per sender, whose
    /// receivers read what it computed off the run it cast them — where
    /// re-deriving per endpoint took 7 (dedup) or 16 (legacy RC). What
    /// is shared is the object: the same content in a new one is hashed
    /// again, and a tampered copy is hashed and rejected.
    #[test]
    fn a_range_is_hashed_once_per_sender_and_a_new_object_again() {
        use crate::messages::tests::TREES_BUILT;
        for mode in [DEDUP, RC] {
            let c = IrmcConfig::new(mode, 4, 1, 3, 1, 64).with_cost(CostModel::zero());
            let slots: Vec<Counted> =
                (1..=32).map(|pos| Counted { pos, hashed: Default::default() }).collect();
            let hashes = |expect: u32, what: &str| {
                for m in &slots {
                    assert_eq!(m.hashed.get(), expect, "{mode}: slot {} {what}", m.pos);
                }
            };
            let trees_before = TREES_BUILT.get();
            let mut receivers: Vec<ReceiverEndpoint<Counted>> =
                (0..3).map(|r| ReceiverEndpoint::new(c.clone(), r, Keyring::new(5))).collect();
            let mut signed_copy = None;
            for s in 0..4 {
                let mut sender = SenderEndpoint::new(c.clone(), s, Keyring::new(5));
                let mut out = Vec::new();
                sender.send_batch(0, Position(1), slots.clone(), &mut out);
                for a in out {
                    let Action::ToReceiver { to, msg } = a else { continue };
                    if matches!(msg, ChannelMsg::Cast { .. }) {
                        signed_copy = Some((s, msg.clone()));
                    }
                    assert_eq!(receivers[to].on_sender_message(s, msg, &mut Vec::new()), Ok(()));
                }
            }
            for r in &mut receivers {
                let delivered = (1..=32).map(|p| r.try_receive(0, Position(p)).into_payload());
                assert!(delivered.eq(slots.iter().cloned().map(Some)), "{mode}: all delivered");
            }
            hashes(4, "is hashed once per sender");
            assert_eq!(TREES_BUILT.get() - trees_before, 4, "{mode}: one tree per sender");

            let Some((from, ChannelMsg::Cast { sc, first, msgs, sig })) = signed_copy else {
                panic!("{mode}: somebody casts")
            };
            // Equal content in a new object: no constructor takes a memo.
            let rebuilt = Run::new(msgs.to_vec());
            assert_eq!(rebuilt, msgs);
            assert_eq!(rebuilt.root(), msgs.root());
            hashes(5, "is hashed again in a new object");
            // A tampered copy (its slot keeps counting on the same counter).
            let mut bad = msgs.to_vec();
            bad[7].pos = 999;
            let cast = ChannelMsg::Cast { sc, first, msgs: Run::new(bad), sig };
            let mut fresh = ReceiverEndpoint::new(c.clone(), 0, Keyring::new(5));
            let res = fresh.on_sender_message(from, cast, &mut Vec::new());
            assert_eq!(res, Err(IrmcError::BadSignature { sc: 0, p: Position(1) }));
            hashes(6, "is hashed when tampered with");
            assert_eq!(TREES_BUILT.get() - trees_before, 6, "{mode}: and two more trees");
        }
    }

    // ------------------------------------------------------------------
    // The slot ring
    // ------------------------------------------------------------------

    /// A peer can make a receiver hold a record for every position the
    /// far-above guard admits, plus the tail of a run that starts at the
    /// last of them — and nothing beyond.
    #[test]
    fn the_far_above_guard_bounds_the_slot_ring() {
        let (capacity, max_range) = (8, 4);
        for (mode, grown) in [(RC, 15), (DEDUP, 18)] {
            let c = cfg(mode).with_range(max_range);
            assert_eq!(c.capacity, capacity);
            // Senders whose own window reaches further than the receiver's.
            let ahead = IrmcConfig::new(mode, 3, 1, 3, 1, 64)
                .with_cost(CostModel::zero())
                .with_range(max_range);
            let mut r = receiver(&c);
            // Window [1, 8]: 15 is the highest position the guard admits.
            let msgs = blobs(15, max_range as u64);
            for s in 0..3 {
                feed(&mut r, s, frames(&ahead, s, 0, 15, &msgs));
            }
            // Legacy RC credits slot by slot and stops at 16; a dedup
            // quorum delivers the run it started as a unit, 15..=18.
            let want =
                if mode == RC { vec![Some(msgs[0].clone()), None, None, None] } else { all(&msgs) };
            assert_eq!(got(&mut r, 0, 15, 4), want, "{mode}");
            let held = r.subs[&0].slots.ring.len();
            assert_eq!(held, grown, "{mode}");
            assert!(held <= 2 * capacity as usize + max_range);
            // One position further is refused, whoever asks and however.
            for s in 0..3 {
                for n in [1, max_range as u64] {
                    for frame in frames(&ahead, s, 0, 16, &blobs(16, n)) {
                        let res = r.on_sender_message(s, frame, &mut Vec::new());
                        assert_eq!(res, Err(IrmcError::OutOfWindow { sc: 0, p: Position(16) }));
                    }
                }
            }
            assert_eq!(r.subs[&0].slots.ring.len(), held, "{mode}: and leaves no record");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The ring is the ordered map it replaced: after any sequence of
        /// writes, window moves and reads (some below the window, some
        /// past the ring's end), both hold the same records — a recycled
        /// record holds nothing of the position it served before.
        #[test]
        fn the_slot_ring_is_a_map_by_position(
            ops in prop::collection::vec((0u8..5, 0u64..48, 0u64..48), 0..200),
        ) {
            let mut ring: Slots<u64> = Slots::new(16);
            let mut model: BTreeMap<u64, (Vec<u64>, Option<u64>)> = BTreeMap::new();
            let mut base = 1u64;
            for (i, (op, a, b)) in ops.into_iter().enumerate() {
                let (p, tag) = (base + a, i as u64);
                match op {
                    0 => {
                        ring.entry(p).unwrap().ready = Some(tag);
                        model.entry(p).or_default().1 = Some(tag);
                    }
                    1 => {
                        ring.entry(p).unwrap().copies.push((0, Digest::ZERO, tag));
                        model.entry(p).or_default().0.push(tag);
                    }
                    2 => {
                        // Reads reach 8 below the window as well.
                        let p = p.saturating_sub(8);
                        let held = ring.get(p).map(|s| {
                            let copies: Vec<u64> = s.copies.iter().map(|c| c.2).collect();
                            (copies, s.ready)
                        });
                        let untouched = (Vec::new(), None);
                        // The ring also holds an empty record for every
                        // position below one that was written.
                        prop_assert_eq!(
                            held.as_ref().unwrap_or(&untouched),
                            model.get(&p).unwrap_or(&untouched)
                        );
                        prop_assert_eq!(ring.ready(p).copied(), model.get(&p).and_then(|m| m.1));
                    }
                    3 => {
                        let (lo, hi) = (p.min(base + b), p.max(base + b));
                        let ready = model.range(lo..hi).filter(|(_, m)| m.1.is_some()).count();
                        prop_assert_eq!(ring.ready_in(lo, hi), ready);
                    }
                    _ => {
                        base += a % 24;
                        ring.gc_below(base);
                        model.retain(|&p, _| p >= base);
                    }
                }
                let highest = model.keys().next_back().map_or(0, |p| p + 1 - base);
                prop_assert!(ring.ring.len() as u64 >= highest, "every written position is held");
                prop_assert!(ring.ring.len() <= 48, "and nothing beyond the furthest write");
                prop_assert!(ring.spare.len() <= 16, "spare records are bounded");
                prop_assert!(ring.spare.iter().all(|s| s.copies.is_empty() && s.ready.is_none()));
            }
        }
    }
}
