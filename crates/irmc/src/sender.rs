//! Sender-side IRMC endpoint (Fig 18 sender half; Fig 19 for IRMC-SC),
//! with multi-slot range certification.
//!
//! [`SenderEndpoint::send_batch`] amortizes the per-slot RSA signature —
//! the saturating cost of a loaded commit channel — over a contiguous
//! slot range: one signature covers the Merkle root of the per-slot
//! digests (see [`crate::messages`]). For IRMC-SC the collector
//! additionally overlaps WAN content shipping with the intra-region
//! share exchange (§A.9): content ships as soon as it is submitted, the
//! certificate follows shares-only. For IRMC-RC with
//! [`crate::ChannelMode::ReliableCast`] `{ dedup: true }`, a
//! deterministically-rotated primary carrier ships the one signed
//! content copy while the other senders confirm the range with a
//! digest-only [`ChannelMsg::RangeVouch`], and every sender retains the
//! content to answer a receiver's [`ReceiverMsg::FetchRange`] should the
//! carrier stall.
//!
//! Range boundaries must match across correct senders for SC shares to
//! combine; callers therefore cut ranges at deterministic points (the
//! agreement replicas use consensus batch boundaries). If boundaries
//! still diverge (e.g. one replica replays after a checkpoint restore),
//! [`SenderEndpoint::tick`] notices certification stalling and falls
//! back to legacy per-slot shares, which match regardless of boundaries.

use crate::config::{IrmcConfig, Variant};
use crate::messages::{carrier_for, range_digest, slot_digest, ChannelMsg, ReceiverMsg};
use crate::window::Window;
use crate::{Action, Content, IrmcError, Subchannel};
use spider_crypto::{merkle_root, Digest, Keyring, Signature};
use spider_types::{Position, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Result of a [`SenderEndpoint::send_batch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendStatus {
    /// The message was transmitted (RC) or entered share collection (SC).
    Sent,
    /// The position is below the flow-control window; the message was
    /// discarded (the receivers already moved on).
    TooOld(
        /// Current window start.
        Position,
    ),
    /// The position is above the window; the message is queued and will be
    /// transmitted automatically once receivers move the window
    /// ([`Action::Unblocked`] will fire).
    Blocked,
}

/// RC: consecutive window-stalled ticks (at the actors' 20 ms tick
/// cadence) before retained content is re-cast — 500 ms, comfortably
/// above a WAN round trip, so the recast never fires while the original
/// casts are still in flight.
pub const RC_RECAST_TICKS: u8 = 25;

/// Where a submitted slot's content lives: single submissions own their
/// message, range submissions index into the shared range payload.
#[derive(Debug)]
enum SlotContent<M> {
    Single(Arc<M>),
    InRange { msgs: Arc<Vec<M>>, idx: u32 },
}

impl<M: Clone> SlotContent<M> {
    /// `None` only if a range index is out of bounds, which no reachable
    /// state produces; callers skip the slot rather than panic.
    fn get(&self) -> Option<&M> {
        match self {
            SlotContent::Single(m) => Some(m),
            SlotContent::InRange { msgs, idx } => msgs.get(*idx as usize),
        }
    }

    /// Shared handle to the content (deep-copies only on the rare
    /// range-to-single fallback path).
    fn arc(&self) -> Option<Arc<M>> {
        match self {
            SlotContent::Single(m) => Some(m.clone()),
            SlotContent::InRange { msgs, idx } => msgs.get(*idx as usize).cloned().map(Arc::new),
        }
    }
}

/// SC: a range this endpoint submitted itself.
#[derive(Debug)]
struct RangeInfo<M> {
    msgs: Arc<Vec<M>>,
    root: Digest,
    /// Receivers the raw content was already shipped to (§A.9 overlap).
    shipped: Vec<bool>,
}

/// SC: signature shares collected for one `(first, root)` range statement.
#[derive(Debug)]
struct RangeShareSet {
    count: u32,
    sigs: BTreeMap<usize, Signature>,
}

/// SC: an assembled range certificate.
#[derive(Debug)]
struct RangeBundle<M> {
    msgs: Arc<Vec<M>>,
    root: Digest,
    shares: Vec<Signature>,
}

/// Contiguous single-slot sends accumulating under the linger knob.
#[derive(Debug)]
struct PendingRun<M> {
    first: u64,
    msgs: Vec<M>,
    deadline: SimTime,
}

#[derive(Debug)]
struct SenderSub<M> {
    awin: Window,
    /// Window-start positions received from each receiver via `Move`.
    receiver_starts: Vec<Position>,
    /// Scratch buffer for the `fr + 1`-selection (reused across `Move`s).
    starts_scratch: Vec<Position>,
    /// Highest window-shift this sender itself requested.
    my_move: Position,
    /// Sends above the window, waiting for a shift (keyed by first slot).
    /// Whole chunks queue atomically so their boundaries survive the wait
    /// (SC shares only combine over identical ranges, and the RC dedup
    /// carrier rotation keys on the chunk's first position).
    blocked: BTreeMap<u64, Vec<M>>,
    /// RC: ranges this endpoint submitted, retained (until the window
    /// moves past them) to answer a receiver's
    /// [`ReceiverMsg::FetchRange`] when the dedup primary carrier
    /// stalls, and to re-cast when the window itself stalls (a healed
    /// partition may have eaten the original casts).
    rc_ranges: BTreeMap<u64, Arc<Vec<M>>>,
    /// Content this endpoint submitted, by position. SC uses it for
    /// share assembly and reshipping; RC retains single-slot sends here
    /// for the stalled-window re-cast.
    content: BTreeMap<u64, SlotContent<M>>,
    /// SC: legacy per-slot signature shares, per position per sender.
    shares: BTreeMap<u64, BTreeMap<usize, (Digest, Signature)>>,
    /// SC: assembled single-slot certificates (content shared for cheap
    /// multi-receiver fan-out).
    bundles: BTreeMap<u64, (Arc<M>, Vec<Signature>)>,
    /// SC: ranges this endpoint submitted, keyed by first position.
    ranges: BTreeMap<u64, RangeInfo<M>>,
    /// SC: range shares collected per `(first, root)` statement.
    range_shares: BTreeMap<(u64, Digest), RangeShareSet>,
    /// SC: assembled range certificates, keyed by first position.
    range_bundles: BTreeMap<u64, RangeBundle<M>>,
    /// Cached gap-free certified high-watermark: every position in
    /// `[awin.start, certified_hwm]` is certified; a value below the
    /// window start means "none yet". Advanced incrementally instead of
    /// rescanning from the window start on every tick.
    certified_hwm: u64,
    /// Watermark observed at the previous tick plus a stall counter:
    /// drives the per-slot fallback for diverged range boundaries.
    last_tick_hwm: u64,
    stalled_ticks: u8,
    /// RC: window start observed at the previous recast tick plus a
    /// stall counter — drives the re-cast of retained content when the
    /// window sits still with undelivered slots (healed partition).
    rc_last_start: u64,
    rc_stall_ticks: u8,
    /// Linger buffer for [`SenderEndpoint::send_buffered`].
    pending: Option<PendingRun<M>>,
}

impl<M: Content> SenderSub<M> {
    fn new(capacity: u64) -> Self {
        SenderSub {
            awin: Window::new(capacity),
            receiver_starts: Vec::new(),
            starts_scratch: Vec::new(),
            my_move: Position(0),
            blocked: BTreeMap::new(),
            rc_ranges: BTreeMap::new(),
            content: BTreeMap::new(),
            shares: BTreeMap::new(),
            bundles: BTreeMap::new(),
            ranges: BTreeMap::new(),
            range_shares: BTreeMap::new(),
            range_bundles: BTreeMap::new(),
            certified_hwm: 0,
            last_tick_hwm: 0,
            stalled_ticks: 0,
            rc_last_start: 0,
            rc_stall_ticks: 0,
            pending: None,
        }
    }

    fn gc_below(&mut self, start: Position) {
        let s = start.0;
        self.blocked.retain(|&p, chunk| p + chunk.len() as u64 > s);
        self.rc_ranges.retain(|&p, msgs| p + msgs.len() as u64 > s);
        self.content.retain(|&p, _| p >= s);
        self.shares.retain(|&p, _| p >= s);
        self.bundles.retain(|&p, _| p >= s);
        self.ranges.retain(|&p, r| p + r.msgs.len() as u64 > s);
        self.range_shares.retain(|&(p, _), set| p + set.count as u64 > s);
        self.range_bundles.retain(|&p, b| p + b.msgs.len() as u64 > s);
        if let Some(run) = &self.pending {
            if run.first + run.msgs.len() as u64 <= s {
                self.pending = None;
            }
        }
    }

    /// Whether position `p` is covered by a certificate (single or range).
    fn certified(&self, p: u64) -> bool {
        if self.bundles.contains_key(&p) {
            return true;
        }
        if let Some((first, rb)) = self.range_bundles.range(..=p).next_back() {
            return p < first + rb.msgs.len() as u64;
        }
        false
    }

    /// Advances the cached gap-free certified watermark.
    fn advance_hwm(&mut self) {
        let start = self.awin.start().0;
        if self.certified_hwm + 1 < start {
            self.certified_hwm = start - 1;
        }
        while self.certified(self.certified_hwm + 1) {
            self.certified_hwm += 1;
        }
    }

    /// Highest gap-free certified position from the window start, if any.
    fn progress(&self) -> Option<Position> {
        (self.certified_hwm >= self.awin.start().0).then_some(Position(self.certified_hwm))
    }
}

/// The sender half of an IRMC, owned by one replica of the sender group.
pub struct SenderEndpoint<M> {
    cfg: IrmcConfig,
    me: usize,
    keyring: Keyring,
    subs: BTreeMap<Subchannel, SenderSub<M>>,
    /// SC: which sender each receiver uses as collector, per subchannel.
    collector_of: BTreeMap<(Subchannel, usize), usize>,
    /// SC: the progress vector announced last tick (suppresses idle
    /// re-announcements).
    last_progress: Vec<(Subchannel, Position)>,
}

impl<M: Content> SenderEndpoint<M> {
    /// Creates sender endpoint `me` of the channel.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(cfg: IrmcConfig, me: usize, keyring: Keyring) -> Self {
        assert!(me < cfg.n_senders, "sender index out of range");
        SenderEndpoint {
            cfg,
            me,
            keyring,
            subs: BTreeMap::new(),
            collector_of: BTreeMap::new(),
            last_progress: Vec::new(),
        }
    }

    /// This endpoint's index within the sender group.
    pub fn index(&self) -> usize {
        self.me
    }

    /// Current flow-control window of a subchannel.
    pub fn window(&self, sc: Subchannel) -> Window {
        self.subs.get(&sc).map(|s| s.awin).unwrap_or_else(|| Window::new(self.cfg.capacity))
    }

    /// Default collector assignment: receiver `r` is served by sender
    /// `r mod n_senders` until it announces otherwise via `Select`.
    fn collector_for(&self, sc: Subchannel, receiver: usize) -> usize {
        self.collector_of.get(&(sc, receiver)).copied().unwrap_or(receiver % self.cfg.n_senders)
    }

    fn sub(&mut self, sc: Subchannel) -> &mut SenderSub<M> {
        let (capacity, n_receivers) = (self.cfg.capacity, self.cfg.n_receivers);
        self.subs.entry(sc).or_insert_with(|| {
            let mut s = SenderSub::new(capacity);
            s.receiver_starts = vec![Position(1); n_receivers];
            s
        })
    }

    /// Largest range this channel actually certifies: the configured cap,
    /// bounded by the window capacity (a longer range could never fit).
    fn range_cap(&self) -> usize {
        self.cfg.max_range.min(self.cfg.capacity as usize).max(1)
    }

    /// Submits a contiguous run of slots `[first, first + msgs.len())` in
    /// one call — the single submission entry point (a batch of one *is*
    /// the legacy `send`, byte-for-byte). Runs longer than
    /// [`IrmcConfig::max_range`] are chunked into Merkle ranges, each
    /// certified by one RSA signature (and one verification per receiver,
    /// per share for SC) instead of one per slot.
    ///
    /// Chunk boundaries are derived from `first`, so callers submitting
    /// identical runs produce identical ranges (required for SC share
    /// matching and RC dedup carrier rotation). Chunks above the window
    /// queue atomically and flush on [`Action::Unblocked`]; a run of
    /// length 1 degenerates to the legacy single-slot wire messages.
    ///
    /// Returns `TooOld` if every slot is below the window, `Blocked` if
    /// nothing could be transmitted yet, `Sent` otherwise.
    pub fn send_batch(
        &mut self,
        sc: Subchannel,
        first: Position,
        msgs: Vec<M>,
        out: &mut Vec<Action<M>>,
    ) -> SendStatus {
        if msgs.is_empty() {
            return SendStatus::Sent;
        }
        let cap = self.range_cap();
        let sub = self.sub(sc);
        let start = sub.awin.start().0;
        let mut status = SendStatus::TooOld(sub.awin.start());
        let mut chunk_first = first.0;
        let mut remaining = msgs;
        while !remaining.is_empty() {
            let n = remaining.len().min(cap);
            let rest = remaining.split_off(n);
            let chunk = std::mem::replace(&mut remaining, rest);
            let chunk_end = chunk_first + n as u64 - 1;
            if chunk_end < start {
                // Entire chunk below the window: receivers moved on.
                chunk_first += n as u64;
                continue;
            }
            let sub = self.sub(sc);
            if sub.awin.is_above(Position(chunk_end)) {
                // Queue the whole chunk so its boundary survives the wait.
                sub.blocked.insert(chunk_first, chunk);
                if status != SendStatus::Sent {
                    status = SendStatus::Blocked;
                }
            } else {
                let (f, c) = trim_below(chunk_first, chunk, start);
                self.transmit_range(sc, f, c, out);
                status = SendStatus::Sent;
            }
            chunk_first += n as u64;
        }
        status
    }

    /// Submits a single slot through the linger buffer: contiguous sends
    /// accumulate into a pending range that flushes when it reaches
    /// [`IrmcConfig::max_range`] slots, when a non-contiguous position
    /// arrives, or at the latest one [`IrmcConfig::range_linger`] later
    /// (enforced by [`SenderEndpoint::tick`], which the host must then
    /// drive for RC channels too). With a zero linger this is exactly a
    /// singleton [`SenderEndpoint::send_batch`].
    pub fn send_buffered(
        &mut self,
        sc: Subchannel,
        p: Position,
        msg: M,
        now: SimTime,
        out: &mut Vec<Action<M>>,
    ) -> SendStatus {
        if self.cfg.range_linger == SimTime::ZERO || self.cfg.max_range <= 1 {
            // analyzer: allow(charge-coverage, "delegates to send_batch(), which charges per transmission")
            return self.send_batch(sc, p, vec![msg], out);
        }
        let linger = self.cfg.range_linger;
        let cap = self.range_cap();
        let sub = self.sub(sc);
        if sub.awin.is_below(p) {
            return SendStatus::TooOld(sub.awin.start());
        }
        match &mut sub.pending {
            Some(run) if p.0 == run.first + run.msgs.len() as u64 => {
                run.msgs.push(msg);
                if run.msgs.len() >= cap {
                    self.flush_pending(sc, out);
                }
                return SendStatus::Sent;
            }
            Some(_) => self.flush_pending(sc, out),
            None => {}
        }
        let sub = self.sub(sc);
        sub.pending = Some(PendingRun { first: p.0, msgs: vec![msg], deadline: now + linger });
        SendStatus::Sent
    }

    /// Flushes the linger buffer of a subchannel, if any.
    pub fn flush_pending(&mut self, sc: Subchannel, out: &mut Vec<Action<M>>) {
        if let Some(run) = self.sub(sc).pending.take() {
            // analyzer: allow(charge-coverage, "delegates to send_batch(), which charges per transmission")
            self.send_batch(sc, Position(run.first), run.msgs, out);
        }
    }

    /// Requests a forward shift of the subchannel window (Fig 14
    /// `move_window`, sender side): broadcast a `Move` to all receivers.
    /// The local window only moves once `fr + 1` receivers confirm.
    pub fn move_window(&mut self, sc: Subchannel, p: Position, out: &mut Vec<Action<M>>) {
        let sub = self.sub(sc);
        if p <= sub.my_move {
            return;
        }
        sub.my_move = p;
        out.push(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        for r in 0..self.cfg.n_receivers {
            out.push(Action::ToReceiver { to: r, msg: ChannelMsg::Move { sc, p } });
        }
    }

    /// Handles a message from receiver endpoint `from`.
    ///
    /// `Err` means the frame was rejected (and why); rejections are
    /// expected under Byzantine receivers — callers discard the frame and
    /// may count or log the reason.
    pub fn on_receiver_message(
        &mut self,
        from: usize,
        msg: ReceiverMsg,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if from >= self.cfg.n_receivers {
            return Err(IrmcError::UnknownEndpoint { index: from });
        }
        // MAC check on every receiver message.
        out.push(Action::Charge(self.cfg.cost.hmac(32), "msg_mac"));
        match msg {
            ReceiverMsg::Move { sc, p } => self.on_receiver_move(from, sc, p, out),
            ReceiverMsg::Select { sc, collector } => {
                if collector >= self.cfg.n_senders {
                    return Err(IrmcError::UnknownEndpoint { index: collector });
                }
                self.collector_of.insert((sc, from), collector);
                if collector == self.me {
                    self.reship_bundles(sc, from, out);
                }
                Ok(())
            }
            ReceiverMsg::FetchRange { sc, first, count } => {
                if !(self.cfg.variant() == Variant::ReceiverCollect && self.cfg.dedup()) {
                    return Err(IrmcError::WrongVariant);
                }
                if count < 2 || count as u64 > self.cfg.capacity {
                    return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
                }
                let sub = self.sub(sc);
                let Some(msgs) = sub.rc_ranges.get(&first.0) else {
                    // Already GC'd (the window moved past it) or cut at a
                    // different boundary: the receiver will ask another
                    // voucher, so staying quiet is safe.
                    return Ok(());
                };
                if msgs.len() as u32 != count {
                    return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
                }
                let msgs = msgs.clone();
                let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
                // MAC the re-shipped content for the requesting receiver;
                // it carries no signature — the receiver verifies it by
                // root comparison against the vouch quorum.
                out.push(Action::Charge(self.cfg.cost.hmac(bytes), "refetch_serve"));
                out.push(Action::ToReceiver {
                    to: from,
                    msg: ChannelMsg::RangeContent { sc, first, msgs },
                });
                Ok(())
            }
        }
    }

    /// Re-ships everything certified so far to a receiver that just
    /// selected this endpoint as collector (Fig 19 L39). Payloads are
    /// shared (`Arc`), so this clones pointers, not content.
    fn reship_bundles(&mut self, sc: Subchannel, to: usize, out: &mut Vec<Action<M>>) {
        let Some(sub) = self.subs.get_mut(&sc) else {
            return;
        };
        let mut shipments: Vec<Action<M>> = Vec::new();
        for (&p, (msg, shares)) in &sub.bundles {
            shipments.push(Action::Charge(self.cfg.cost.hmac(msg.wire_size()), "reship"));
            shipments.push(Action::ToReceiver {
                to,
                msg: ChannelMsg::Certificate {
                    sc,
                    p: Position(p),
                    msg: msg.clone(),
                    shares: shares.clone(),
                },
            });
        }
        for (&first, rb) in &sub.range_bundles {
            let bytes: usize = rb.msgs.iter().map(|m| m.wire_size()).sum();
            shipments.push(Action::Charge(self.cfg.cost.hmac(bytes), "reship"));
            shipments.push(Action::ToReceiver {
                to,
                msg: ChannelMsg::RangeContent { sc, first: Position(first), msgs: rb.msgs.clone() },
            });
            shipments.push(Action::Charge(self.cfg.cost.hmac(32), "reship"));
            shipments.push(Action::ToReceiver {
                to,
                msg: ChannelMsg::RangeCertificate {
                    sc,
                    first: Position(first),
                    count: rb.msgs.len() as u32,
                    root: rb.root,
                    shares: rb.shares.clone(),
                },
            });
            if let Some(flag) = sub.ranges.get_mut(&first).and_then(|i| i.shipped.get_mut(to)) {
                *flag = true;
            }
        }
        out.extend(shipments);
    }

    fn on_receiver_move(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        let fr = self.cfg.fr;
        let sub = self.sub(sc);
        match sub.receiver_starts.get_mut(from) {
            Some(prev) if p > *prev => *prev = p,
            Some(_) => return Ok(()),
            None => return Err(IrmcError::UnknownEndpoint { index: from }),
        }
        // New window start: the (fr + 1)-highest receiver request — at
        // least one correct receiver has permitted this shift (§3.2).
        // Selection on a reused scratch buffer instead of clone + sort.
        sub.starts_scratch.clear();
        sub.starts_scratch.extend_from_slice(&sub.receiver_starts);
        let (_, nth, _) = sub.starts_scratch.select_nth_unstable_by(fr, |a, b| b.cmp(a));
        let new_start = *nth;
        if sub.awin.advance_to(new_start) {
            sub.gc_below(new_start);
            sub.advance_hwm();
            out.push(Action::WindowMoved { sc, start: new_start });
            self.flush_blocked(sc, out);
        }
        Ok(())
    }

    /// Transmits queued sends that fit into the (moved) window.
    fn flush_blocked(&mut self, sc: Subchannel, out: &mut Vec<Action<M>>) {
        loop {
            let sub = self.sub(sc);
            let Some((&p, chunk)) = sub.blocked.iter().next() else {
                return;
            };
            let end = Position(p + chunk.len() as u64 - 1);
            if sub.awin.is_above(end) {
                return; // The chunk (or its tail) still waits for a shift.
            }
            let start = sub.awin.start().0;
            let Some(msgs) = sub.blocked.remove(&p) else {
                return; // Key vanished between peek and remove: impossible,
                        // but returning is safe (the chunk stays queued).
            };
            if end.0 < start {
                continue; // overtaken by the window; drop silently
            }
            let (f, chunk) = trim_below(p, msgs, start);
            out.push(Action::Unblocked { sc, p: Position(f) });
            self.transmit_range(sc, f, chunk, out);
        }
    }

    /// Performs the variant-specific submission of in-window content.
    fn transmit(&mut self, sc: Subchannel, p: Position, msg: M, out: &mut Vec<Action<M>>) {
        let Some(key) = self.key_of_sender(self.me) else {
            return; // `new` validated `me`; unreachable without a bad cfg.
        };
        let digest = slot_digest(sc, p, &msg.digest());
        // Hash the payload and produce one RSA signature.
        out.push(Action::Charge(
            self.cfg.cost.hmac(msg.wire_size()) + self.cfg.cost.rsa_sign(),
            "slot_sign",
        ));
        let sig = self.keyring.sign(key, &digest);
        match self.cfg.variant() {
            Variant::ReceiverCollect => {
                // Retain the content until the window moves past it so a
                // stalled window (healed partition) can be re-cast.
                self.sub(sc).content.insert(p.0, SlotContent::Single(Arc::new(msg.clone())));
                for r in 0..self.cfg.n_receivers {
                    out.push(Action::ToReceiver {
                        to: r,
                        msg: ChannelMsg::Send { sc, p, msg: msg.clone(), sig },
                    });
                }
            }
            Variant::SenderCollect => {
                let me = self.me;
                let content_digest = msg.digest();
                let sub = self.sub(sc);
                sub.content.insert(p.0, SlotContent::Single(Arc::new(msg)));
                sub.shares.entry(p.0).or_default().insert(me, (content_digest, sig));
                for s in 0..self.cfg.n_senders {
                    if s != me {
                        out.push(Action::ToPeerSender {
                            to: s,
                            msg: ChannelMsg::SigShare { sc, p, digest: content_digest, sig },
                        });
                    }
                }
                self.maybe_bundle(sc, p, out);
            }
        }
    }

    /// Submits an in-window contiguous range: hashes every payload, signs
    /// **one** digest over the range (Merkle root of the slot digests),
    /// and ships a single range message per destination.
    fn transmit_range(
        &mut self,
        sc: Subchannel,
        first: u64,
        mut msgs: Vec<M>,
        out: &mut Vec<Action<M>>,
    ) {
        match msgs.len() {
            0 => return,
            // Length 1 degenerates to the legacy single-slot messages so
            // mixed configurations stay byte-compatible.
            1 => return self.transmit(sc, Position(first), msgs.remove(0), out),
            _ => {}
        }
        let count = msgs.len() as u32;
        let leaves: Vec<Digest> = msgs.iter().map(|m| m.digest()).collect();
        let root = merkle_root(&leaves);
        let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
        // Hash all payloads and build the tree.
        out.push(Action::Charge(
            self.cfg.cost.hmac(bytes) + self.cfg.cost.merkle(count as usize),
            "range_hash",
        ));
        let msgs = Arc::new(msgs);
        let mut shipped = vec![false; self.cfg.n_receivers];
        if self.cfg.variant() == Variant::SenderCollect && self.cfg.sc_overlap() {
            // §A.9: ship the raw content to the receivers this endpoint
            // collects for *before* spending the signature — content
            // carries no proof, so its WAN transfer overlaps both the
            // local RSA signing and the share exchange. The compact
            // shares-only certificate follows from maybe_bundle_range.
            for (r, was_shipped) in shipped.iter_mut().enumerate() {
                if self.collector_for(sc, r) == self.me {
                    *was_shipped = true;
                    out.push(Action::Charge(self.cfg.cost.hmac(bytes), "range_ship"));
                    out.push(Action::ToReceiver {
                        to: r,
                        msg: ChannelMsg::RangeContent {
                            sc,
                            first: Position(first),
                            msgs: msgs.clone(),
                        },
                    });
                }
            }
        }
        let Some(key) = self.key_of_sender(self.me) else {
            return; // `new` validated `me`; unreachable without a bad cfg.
        };
        let rd = range_digest(sc, Position(first), count, &root);
        if self.cfg.variant() == Variant::ReceiverCollect && self.cfg.dedup() {
            // Digest-only fan-in: only the rotated primary carrier signs
            // and ships the content; everyone else confirms the range with
            // a MAC-authenticated vouch, and everyone (carrier included)
            // retains the content until the window moves past it so a
            // receiver can refetch from any voucher if the carrier stalls.
            let carrier = carrier_for(sc, Position(first), self.cfg.n_senders);
            self.sub(sc).rc_ranges.insert(first, msgs.clone());
            if carrier == self.me {
                // One RSA signature for the whole range.
                out.push(Action::Charge(self.cfg.cost.rsa_sign(), "range_sign"));
                let sig = self.keyring.sign(key, &rd);
                for r in 0..self.cfg.n_receivers {
                    out.push(Action::ToReceiver {
                        to: r,
                        msg: ChannelMsg::SendRange {
                            sc,
                            first: Position(first),
                            msgs: msgs.clone(),
                            sig,
                        },
                    });
                }
            } else {
                // MAC over the fixed-size vouch statement — no signature:
                // the vouch is consumed by the receiving endpoint only,
                // never forwarded as proof (IRMC-RC trust model, Fig 18).
                out.push(Action::Charge(self.cfg.cost.hmac(52), "vouch_mac"));
                for r in 0..self.cfg.n_receivers {
                    out.push(Action::ToReceiver {
                        to: r,
                        msg: ChannelMsg::RangeVouch { sc, first: Position(first), count, root },
                    });
                }
            }
            return;
        }
        // One RSA signature for the whole range.
        out.push(Action::Charge(self.cfg.cost.rsa_sign(), "range_sign"));
        let sig = self.keyring.sign(key, &rd);
        match self.cfg.variant() {
            Variant::ReceiverCollect => {
                // Retained for the stalled-window re-cast (see rc_ranges).
                self.sub(sc).rc_ranges.insert(first, msgs.clone());
                for r in 0..self.cfg.n_receivers {
                    out.push(Action::ToReceiver {
                        to: r,
                        msg: ChannelMsg::SendRange {
                            sc,
                            first: Position(first),
                            msgs: msgs.clone(),
                            sig,
                        },
                    });
                }
            }
            Variant::SenderCollect => {
                let me = self.me;
                let sub = self.sub(sc);
                for (i, _) in msgs.iter().enumerate() {
                    sub.content.insert(
                        first + i as u64,
                        SlotContent::InRange { msgs: msgs.clone(), idx: i as u32 },
                    );
                }
                sub.range_shares
                    .entry((first, root))
                    .or_insert_with(|| RangeShareSet { count, sigs: BTreeMap::new() })
                    .sigs
                    .insert(me, sig);
                for s in 0..self.cfg.n_senders {
                    if s != me {
                        out.push(Action::ToPeerSender {
                            to: s,
                            msg: ChannelMsg::RangeShare {
                                sc,
                                first: Position(first),
                                count,
                                root,
                                sig,
                            },
                        });
                    }
                }
                let sub = self.sub(sc);
                sub.ranges.insert(first, RangeInfo { msgs, root, shipped });
                self.maybe_bundle_range(sc, first, root, out);
            }
        }
    }

    /// Handles an intra-group message from peer sender `from` (IRMC-SC).
    ///
    /// `Err` means the frame was rejected (and why); rejections are
    /// expected under Byzantine peers — callers discard the frame and may
    /// count or log the reason.
    pub fn on_peer_message(
        &mut self,
        from: usize,
        msg: ChannelMsg<M>,
        out: &mut Vec<Action<M>>,
    ) -> Result<(), IrmcError> {
        if from >= self.cfg.n_senders {
            return Err(IrmcError::UnknownEndpoint { index: from });
        }
        if from == self.me {
            return Err(IrmcError::UnexpectedFrame);
        }
        if self.cfg.variant() != Variant::SenderCollect {
            return Err(IrmcError::WrongVariant);
        }
        match msg {
            ChannelMsg::SigShare { sc, p, digest, sig } => {
                let Some(key) = self.key_of_sender(from) else {
                    return Err(IrmcError::UnknownEndpoint { index: from });
                };
                // Verify the peer's share signature.
                out.push(Action::Charge(self.cfg.cost.rsa_verify(), "share_verify"));
                let slot = slot_digest(sc, p, &digest);
                if !self.keyring.verify(key, &slot, &sig) {
                    return Err(IrmcError::BadSignature { sc, p });
                }
                let sub = self.sub(sc);
                if sub.awin.is_below(p) {
                    return Ok(()); // Late duplicate; normal.
                }
                // Only the first share per (position, sender) counts
                // (Fig 19 L17).
                sub.shares.entry(p.0).or_default().entry(from).or_insert((digest, sig));
                self.maybe_bundle(sc, p, out);
                Ok(())
            }
            ChannelMsg::RangeShare { sc, first, count, root, sig } => {
                if count < 2 || count as u64 > self.cfg.capacity {
                    return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
                }
                let Some(key) = self.key_of_sender(from) else {
                    return Err(IrmcError::UnknownEndpoint { index: from });
                };
                // One verification vouches for the whole range.
                out.push(Action::Charge(self.cfg.cost.rsa_verify(), "share_verify"));
                let rd = range_digest(sc, first, count, &root);
                if !self.keyring.verify(key, &rd, &sig) {
                    return Err(IrmcError::BadSignature { sc, p: first });
                }
                let sub = self.sub(sc);
                if first.0 + count as u64 <= sub.awin.start().0 {
                    return Ok(()); // Entirely below the window.
                }
                if first.0 >= sub.awin.end().0 + sub.awin.capacity() {
                    // Absurdly far above it (memory guard).
                    return Err(IrmcError::OutOfWindow { sc, p: first });
                }
                let set = sub
                    .range_shares
                    .entry((first.0, root))
                    .or_insert_with(|| RangeShareSet { count, sigs: BTreeMap::new() });
                if set.count != count {
                    // Same root, different length: bogus.
                    return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
                }
                set.sigs.entry(from).or_insert(sig);
                self.maybe_bundle_range(sc, first.0, root, out);
                Ok(())
            }
            // Receiver-bound frames have no business on the peer link; an
            // explicit list (not `_`) so a new wire variant must be triaged.
            ChannelMsg::Send { .. }
            | ChannelMsg::SendRange { .. }
            | ChannelMsg::Certificate { .. }
            | ChannelMsg::RangeVouch { .. }
            | ChannelMsg::RangeContent { .. }
            | ChannelMsg::RangeCertificate { .. }
            | ChannelMsg::Progress { .. }
            | ChannelMsg::Move { .. } => Err(IrmcError::UnexpectedFrame),
        }
    }

    /// Assembles and ships a certificate once `fs + 1` matching shares and
    /// the content itself are present (Fig 19 L22-24).
    fn maybe_bundle(&mut self, sc: Subchannel, p: Position, out: &mut Vec<Action<M>>) {
        let fs = self.cfg.fs;
        let me = self.me;
        let n_receivers = self.cfg.n_receivers;
        let sub = self.sub(sc);
        if sub.certified(p.0) {
            return;
        }
        let Some(content) = sub.content.get(&p.0) else {
            return;
        };
        let Some(want) = content.get().map(|m| m.digest()) else {
            return;
        };
        let Some(shares) = sub.shares.get(&p.0) else {
            return;
        };
        let mut matching: Vec<(usize, Signature)> = shares
            .iter()
            .filter(|(_, (d, _))| *d == want)
            .map(|(s, (_, sig))| (*s, *sig))
            .collect();
        if matching.len() < fs + 1 {
            return;
        }
        matching.sort_by_key(|(s, _)| *s);
        matching.truncate(fs + 1);
        let vec: Vec<Signature> = matching.into_iter().map(|(_, sig)| sig).collect();
        let Some(arc) = content.arc() else {
            return;
        };
        sub.bundles.insert(p.0, (arc.clone(), vec.clone()));
        sub.advance_hwm();

        let targets: Vec<usize> =
            (0..n_receivers).filter(|r| self.collector_for(sc, *r) == me).collect();
        for r in targets {
            out.push(Action::Charge(self.cfg.cost.hmac(arc.wire_size()), "bundle_mac"));
            out.push(Action::ToReceiver {
                to: r,
                msg: ChannelMsg::Certificate { sc, p, msg: arc.clone(), shares: vec.clone() },
            });
        }
    }

    /// Assembles and ships a **range** certificate once `fs + 1` shares
    /// over this endpoint's own `(first, root)` statement are present:
    /// content that was already shipped (§A.9 overlap) is not re-shipped —
    /// only the compact shares-only certificate goes out.
    fn maybe_bundle_range(
        &mut self,
        sc: Subchannel,
        first: u64,
        root: Digest,
        out: &mut Vec<Action<M>>,
    ) {
        let fs = self.cfg.fs;
        let me = self.me;
        let n_receivers = self.cfg.n_receivers;
        let sub = self.sub(sc);
        if sub.range_bundles.contains_key(&first) {
            return;
        }
        let Some(info) = sub.ranges.get(&first) else {
            return; // Only bundle over content we submitted ourselves.
        };
        if info.root != root {
            return;
        }
        let Some(set) = sub.range_shares.get(&(first, root)) else {
            return;
        };
        if set.sigs.len() < fs + 1 {
            return;
        }
        let mut matching: Vec<(usize, Signature)> =
            set.sigs.iter().map(|(s, sig)| (*s, *sig)).collect();
        matching.sort_by_key(|(s, _)| *s);
        matching.truncate(fs + 1);
        let shares: Vec<Signature> = matching.into_iter().map(|(_, sig)| sig).collect();
        let msgs = info.msgs.clone();
        let count = msgs.len() as u32;
        let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
        sub.range_bundles
            .insert(first, RangeBundle { msgs: msgs.clone(), root, shares: shares.clone() });
        sub.advance_hwm();

        let targets: Vec<usize> =
            (0..n_receivers).filter(|r| self.collector_for(sc, *r) == me).collect();
        for r in targets {
            let sub = self.sub(sc);
            let needs_content = sub
                .ranges
                .get_mut(&first)
                .and_then(|i| i.shipped.get_mut(r))
                .map(|b| !std::mem::replace(b, true));
            if needs_content.unwrap_or(true) {
                out.push(Action::Charge(self.cfg.cost.hmac(bytes), "bundle_mac"));
                out.push(Action::ToReceiver {
                    to: r,
                    msg: ChannelMsg::RangeContent {
                        sc,
                        first: Position(first),
                        msgs: msgs.clone(),
                    },
                });
            }
            out.push(Action::Charge(self.cfg.cost.hmac(32), "bundle_mac"));
            out.push(Action::ToReceiver {
                to: r,
                msg: ChannelMsg::RangeCertificate {
                    sc,
                    first: Position(first),
                    count,
                    root,
                    shares: shares.clone(),
                },
            });
        }
    }

    /// Periodic driver: flushes expired linger buffers (both variants) and,
    /// for IRMC-SC, emits `Progress` announcements from the cached
    /// gap-free certified watermark (Fig 19 L26-30) and falls back to
    /// per-slot shares when range certification stalls (diverged range
    /// boundaries, e.g. after a checkpoint-restore replay).
    pub fn tick(&mut self, now: SimTime, out: &mut Vec<Action<M>>) {
        if self.cfg.range_linger > SimTime::ZERO {
            let due: Vec<Subchannel> = self
                .subs
                .iter()
                .filter(|(_, s)| s.pending.as_ref().is_some_and(|r| r.deadline <= now))
                .map(|(&sc, _)| sc)
                .collect();
            for sc in due {
                self.flush_pending(sc, out);
            }
        }
        if self.cfg.variant() != Variant::SenderCollect {
            self.rc_recast_tick(out);
            return;
        }
        self.fallback_stalled(out);
        let mut positions = Vec::new();
        for (&sc, sub) in &self.subs {
            if let Some(prog) = sub.progress() {
                positions.push((sc, prog));
            }
        }
        positions.sort_unstable();
        if positions.is_empty() || positions == self.last_progress {
            return; // Nothing new to announce; stay quiet.
        }
        self.last_progress = positions.clone();
        out.push(Action::Charge(self.cfg.cost.hmac(positions.len() * 16), "progress_mac"));
        for r in 0..self.cfg.n_receivers {
            out.push(Action::ToReceiver {
                to: r,
                msg: ChannelMsg::Progress { positions: positions.clone() },
            });
        }
    }

    /// Liveness net for diverged range boundaries: when the certified
    /// watermark has not moved for two consecutive ticks while submitted
    /// content sits uncertified, re-share the stalled slots with legacy
    /// per-slot `SigShare`s — those match across senders regardless of
    /// how each cut its ranges.
    fn fallback_stalled(&mut self, out: &mut Vec<Action<M>>) {
        let cap = self.range_cap() as u64;
        let me = self.me;
        let Some(me_key) = self.key_of_sender(me) else {
            return; // `new` validated `me`; unreachable without a bad cfg.
        };
        let mut work: Vec<(Subchannel, u64, u64)> = Vec::new();
        for (&sc, sub) in &mut self.subs {
            sub.advance_hwm();
            let highest = sub.content.keys().next_back().copied().unwrap_or(0);
            let from = sub.certified_hwm.max(sub.awin.start().0 - 1) + 1;
            if highest < from {
                sub.stalled_ticks = 0;
                sub.last_tick_hwm = sub.certified_hwm;
                continue;
            }
            if sub.certified_hwm == sub.last_tick_hwm {
                sub.stalled_ticks = sub.stalled_ticks.saturating_add(1);
            } else {
                sub.stalled_ticks = 0;
            }
            sub.last_tick_hwm = sub.certified_hwm;
            if sub.stalled_ticks >= 2 {
                sub.stalled_ticks = 0;
                work.push((sc, from, highest.min(from + cap - 1)));
            }
        }
        for (sc, from, to) in work {
            for p in from..=to {
                let sub = self.sub(sc);
                if sub.certified(p) {
                    continue;
                }
                let Some(digest) = sub.content.get(&p).and_then(|c| c.get()).map(|m| m.digest())
                else {
                    continue;
                };
                let slot = slot_digest(sc, Position(p), &digest);
                out.push(Action::Charge(self.cfg.cost.rsa_sign(), "slot_sign"));
                let sig = self.keyring.sign(me_key, &slot);
                let sub = self.sub(sc);
                sub.shares.entry(p).or_default().insert(me, (digest, sig));
                for s in 0..self.cfg.n_senders {
                    if s != me {
                        out.push(Action::ToPeerSender {
                            to: s,
                            msg: ChannelMsg::SigShare { sc, p: Position(p), digest, sig },
                        });
                    }
                }
                self.maybe_bundle(sc, Position(p), out);
            }
        }
    }

    /// RC liveness net for severed links: when the window has sat still
    /// for [`RC_RECAST_TICKS`] consecutive ticks with undelivered
    /// content, re-cast the retained in-window slots. The original casts
    /// went out exactly once at submit time; a partition that swallowed
    /// them would otherwise wedge the channel forever, because receivers
    /// that never saw a vouch cannot even ask to fetch.
    fn rc_recast_tick(&mut self, out: &mut Vec<Action<M>>) {
        let mut due: Vec<Subchannel> = Vec::new();
        for (&sc, sub) in &mut self.subs {
            let start = sub.awin.start().0;
            let pending = !sub.blocked.is_empty()
                || sub.rc_ranges.iter().any(|(&f, msgs)| f + msgs.len() as u64 > start)
                || sub.content.range(start..).next().is_some();
            if !pending {
                sub.rc_stall_ticks = 0;
                sub.rc_last_start = start;
                continue;
            }
            if start != sub.rc_last_start {
                sub.rc_last_start = start;
                sub.rc_stall_ticks = 0;
                continue;
            }
            sub.rc_stall_ticks = sub.rc_stall_ticks.saturating_add(1);
            if sub.rc_stall_ticks >= RC_RECAST_TICKS {
                sub.rc_stall_ticks = 0;
                due.push(sc);
            }
        }
        for sc in due {
            self.recast_sub(sc, out);
        }
    }

    /// Re-casts this endpoint's retained in-window content on `sc` to
    /// every receiver whose last announced window start still covers it.
    /// Receivers treat duplicates idempotently, and a receiver that
    /// already moved past a slot re-announces its window start on the
    /// below-window duplicate, so recasting converges rather than loops.
    fn recast_sub(&mut self, sc: Subchannel, out: &mut Vec<Action<M>>) {
        let Some(me_key) = self.key_of_sender(self.me) else {
            return; // `new` validated `me`; unreachable without a bad cfg.
        };
        let me = self.me;
        let n_senders = self.cfg.n_senders;
        let n_receivers = self.cfg.n_receivers;
        let dedup = self.cfg.dedup();
        let sub = self.sub(sc);
        let start = sub.awin.start().0;
        let ranges: Vec<(u64, Arc<Vec<M>>)> = sub
            .rc_ranges
            .iter()
            .filter(|&(&f, msgs)| f + msgs.len() as u64 > start)
            .map(|(&f, msgs)| (f, msgs.clone()))
            .collect();
        let singles: Vec<(u64, Arc<M>)> = sub
            .content
            .range(start..)
            .filter_map(|(&p, c)| match c {
                SlotContent::Single(m) => Some((p, m.clone())),
                SlotContent::InRange { .. } => None,
            })
            .collect();
        let starts = sub.receiver_starts.clone();
        // Only receivers whose announced window still reaches the chunk:
        // the rest already delivered it (their `Move` told us so).
        let targets = |last: u64| -> Vec<usize> {
            (0..n_receivers).filter(|&r| starts.get(r).is_none_or(|s| s.0 <= last)).collect()
        };
        for (first, msgs) in ranges {
            let last = first + msgs.len() as u64 - 1;
            let to = targets(last);
            if to.is_empty() {
                continue;
            }
            let count = msgs.len() as u32;
            let leaves: Vec<Digest> = msgs.iter().map(|m| m.digest()).collect();
            let root = merkle_root(&leaves);
            let bytes: usize = msgs.iter().map(|m| m.wire_size()).sum();
            out.push(Action::Charge(
                self.cfg.cost.hmac(bytes) + self.cfg.cost.merkle(count as usize),
                crate::OP_RECAST,
            ));
            if dedup && carrier_for(sc, Position(first), n_senders) != me {
                // Not the carrier: repeat the digest-only vouch. The
                // receiver's carrier-supervision timer escalates to a
                // FetchRange against us if the carrier stays dark.
                out.push(Action::Charge(self.cfg.cost.hmac(52), crate::OP_RECAST));
                for r in to {
                    out.push(Action::ToReceiver {
                        to: r,
                        msg: ChannelMsg::RangeVouch { sc, first: Position(first), count, root },
                    });
                }
            } else {
                let rd = range_digest(sc, Position(first), count, &root);
                out.push(Action::Charge(self.cfg.cost.rsa_sign(), crate::OP_RECAST));
                let sig = self.keyring.sign(me_key, &rd);
                for r in to {
                    out.push(Action::ToReceiver {
                        to: r,
                        msg: ChannelMsg::SendRange {
                            sc,
                            first: Position(first),
                            msgs: msgs.clone(),
                            sig,
                        },
                    });
                }
            }
        }
        for (p, msg) in singles {
            let to = targets(p);
            if to.is_empty() {
                continue;
            }
            let digest = slot_digest(sc, Position(p), &msg.digest());
            out.push(Action::Charge(
                self.cfg.cost.hmac(msg.wire_size()) + self.cfg.cost.rsa_sign(),
                crate::OP_RECAST,
            ));
            let sig = self.keyring.sign(me_key, &digest);
            for r in to {
                out.push(Action::ToReceiver {
                    to: r,
                    msg: ChannelMsg::Send { sc, p: Position(p), msg: (*msg).clone(), sig },
                });
            }
        }
    }

    /// Whether any subchannel still holds content the receiver quorum has
    /// not acknowledged by moving the window past it (or sends queued
    /// behind the window). Actors keep the RC recast tick armed only
    /// while this is true, so idle simulations still quiesce.
    pub fn has_unacked(&self) -> bool {
        self.subs.values().any(|sub| {
            let start = sub.awin.start().0;
            !sub.blocked.is_empty()
                || sub.pending.is_some()
                || sub.rc_ranges.iter().any(|(&f, msgs)| f + msgs.len() as u64 > start)
                || sub.content.range(start..).next().is_some()
        })
    }

    /// Number of slots the receiver side owes progress on: transmitted
    /// content the window has not moved past, plus sends queued behind a
    /// full window — the backpressure gauge fed to the health watchdog.
    /// The linger buffer is deliberately *excluded*: slots batching
    /// toward a range boundary are this sender's own scheduling choice,
    /// and counting them makes every low-rate range-certified channel
    /// look permanently stalled. Retained range copies and per-slot
    /// content can cover the same positions, so the larger of the two
    /// counts per subchannel is used.
    pub fn unacked_slots(&self) -> u64 {
        self.subs
            .values()
            .map(|sub| {
                let start = sub.awin.start().0;
                let blocked: u64 = sub.blocked.values().map(|c| c.len() as u64).sum();
                let retained = sub.content.range(start..).count() as u64;
                let ranged: u64 = sub
                    .rc_ranges
                    .iter()
                    .map(|(&f, msgs)| (f + msgs.len() as u64).saturating_sub(start.max(f)))
                    .sum();
                blocked + retained.max(ranged)
            })
            .sum()
    }

    fn key_of_sender(&self, idx: usize) -> Option<spider_crypto::KeyId> {
        self.cfg.sender_keys.get(idx).copied()
    }
}

/// Drops the slots of `msgs` that fall below window start `start`;
/// returns the trimmed first position and content.
fn trim_below<M>(first: u64, mut msgs: Vec<M>, start: u64) -> (u64, Vec<M>) {
    if first >= start {
        return (first, msgs);
    }
    let skip = ((start - first) as usize).min(msgs.len());
    msgs.drain(..skip);
    (first + skip as u64, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::Blob;
    use spider_crypto::Digestible as _;

    fn cfg(variant: Variant) -> IrmcConfig {
        IrmcConfig::new(variant, 3, 1, 3, 1, 4).with_cost(spider_crypto::CostModel::zero())
    }

    fn sender(variant: Variant, me: usize) -> SenderEndpoint<Blob> {
        SenderEndpoint::new(cfg(variant), me, Keyring::new(5))
    }

    #[test]
    fn rc_send_fans_out_to_all_receivers() {
        let mut s = sender(Variant::ReceiverCollect, 0);
        let mut out = Vec::new();
        let st = s.send_batch(7, Position(1), vec![Blob::new(b"m")], &mut out);
        assert_eq!(st, SendStatus::Sent);
        let sends = out
            .iter()
            .filter(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::Send { .. }, .. }))
            .count();
        assert_eq!(sends, 3);
    }

    #[test]
    fn send_above_window_blocks_and_flushes_on_move() {
        let mut s = sender(Variant::ReceiverCollect, 0);
        let mut out = Vec::new();
        // Window is [1, 4]; position 6 must block.
        assert_eq!(
            s.send_batch(0, Position(6), vec![Blob::new(b"m")], &mut out),
            SendStatus::Blocked
        );
        assert!(out.iter().all(|a| !matches!(a, Action::ToReceiver { .. })));

        // fr + 1 = 2 receivers move their windows to 3: window = [3, 6].
        out.clear();
        let _ = s.on_receiver_message(0, ReceiverMsg::Move { sc: 0, p: Position(3) }, &mut out);
        assert!(
            !out.iter().any(|a| matches!(a, Action::Unblocked { .. })),
            "one receiver is not enough (fr = 1)"
        );
        let _ = s.on_receiver_message(1, ReceiverMsg::Move { sc: 0, p: Position(3) }, &mut out);
        assert!(out.iter().any(|a| matches!(a, Action::Unblocked { p, .. } if *p == Position(6))));
        assert!(out.iter().any(|a| matches!(a, Action::ToReceiver { .. })));
        assert_eq!(s.window(0).start(), Position(3));
    }

    #[test]
    fn send_below_window_reports_too_old() {
        let mut s = sender(Variant::ReceiverCollect, 0);
        let mut out = Vec::new();
        let _ = s.on_receiver_message(0, ReceiverMsg::Move { sc: 0, p: Position(5) }, &mut out);
        let _ = s.on_receiver_message(1, ReceiverMsg::Move { sc: 0, p: Position(5) }, &mut out);
        assert_eq!(
            s.send_batch(0, Position(2), vec![Blob::new(b"m")], &mut out),
            SendStatus::TooOld(Position(5))
        );
    }

    #[test]
    fn stale_receiver_moves_are_ignored() {
        let mut s = sender(Variant::ReceiverCollect, 0);
        let mut out = Vec::new();
        let _ = s.on_receiver_message(0, ReceiverMsg::Move { sc: 0, p: Position(5) }, &mut out);
        let _ = s.on_receiver_message(0, ReceiverMsg::Move { sc: 0, p: Position(2) }, &mut out);
        let _ = s.on_receiver_message(1, ReceiverMsg::Move { sc: 0, p: Position(5) }, &mut out);
        assert_eq!(s.window(0).start(), Position(5), "regression discarded");
    }

    #[test]
    fn sc_send_exchanges_shares_then_certificate() {
        let ring = Keyring::new(5);
        let mut s0 = SenderEndpoint::<Blob>::new(cfg(Variant::SenderCollect), 0, ring.clone());
        let mut s1 = SenderEndpoint::<Blob>::new(cfg(Variant::SenderCollect), 1, ring.clone());
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        let m = Blob::new(b"content");
        s0.send_batch(0, Position(1), vec![m.clone()], &mut out0);
        s1.send_batch(0, Position(1), vec![m.clone()], &mut out1);
        // No certificates yet (each has only its own share; fs + 1 = 2).
        assert!(!out0
            .iter()
            .any(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::Certificate { .. }, .. })));
        // Deliver s1's share to s0.
        let share = out1
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 0, msg } => Some(msg.clone()),
                _ => None,
            })
            .expect("share for s0");
        let mut out = Vec::new();
        let _ = s0.on_peer_message(1, share, &mut out);
        // s0 is the default collector for receiver 0 (0 % 3) and ships one
        // certificate there.
        let certs: Vec<usize> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToReceiver { to, msg: ChannelMsg::Certificate { shares, .. } } => {
                    assert_eq!(shares.len(), 2);
                    Some(*to)
                }
                _ => None,
            })
            .collect();
        assert_eq!(certs, vec![0]);
    }

    #[test]
    fn sc_mismatching_share_does_not_bundle() {
        let ring = Keyring::new(5);
        let mut s0 = SenderEndpoint::<Blob>::new(cfg(Variant::SenderCollect), 0, ring.clone());
        let mut out = Vec::new();
        s0.send_batch(0, Position(1), vec![Blob::new(b"good")], &mut out);
        out.clear();
        // A (faulty) peer shares a signature over *different* content.
        let bad_digest = Blob::new(b"evil").digest();
        let slot = slot_digest(0, Position(1), &bad_digest);
        let sig = ring.sign(spider_crypto::KeyId(1001), &slot);
        let _ = s0.on_peer_message(
            1,
            ChannelMsg::SigShare { sc: 0, p: Position(1), digest: bad_digest, sig },
            &mut out,
        );
        assert!(!out
            .iter()
            .any(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::Certificate { .. }, .. })));
    }

    #[test]
    fn sc_select_reassigns_collector_and_reships() {
        let ring = Keyring::new(5);
        let mut s1 = SenderEndpoint::<Blob>::new(cfg(Variant::SenderCollect), 1, ring.clone());
        let mut s0_share_out = Vec::new();
        let mut s0 = SenderEndpoint::<Blob>::new(cfg(Variant::SenderCollect), 0, ring.clone());
        let m = Blob::new(b"c");
        s0.send_batch(0, Position(1), vec![m.clone()], &mut s0_share_out);
        let mut out = Vec::new();
        s1.send_batch(0, Position(1), vec![m], &mut out);
        let share = s0_share_out
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 1, msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        out.clear();
        let _ = s1.on_peer_message(0, share, &mut out);
        // s1 is default collector for receiver 1 only.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToReceiver { to: 1, msg: ChannelMsg::Certificate { .. } }
        )));
        // Receiver 0 switches its collector to s1: the bundle re-ships.
        out.clear();
        let _ = s1.on_receiver_message(0, ReceiverMsg::Select { sc: 0, collector: 1 }, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToReceiver { to: 0, msg: ChannelMsg::Certificate { .. } }
        )));
    }

    #[test]
    fn sc_tick_reports_gap_free_progress() {
        let ring = Keyring::new(5);
        let c = cfg(Variant::SenderCollect);
        let mut senders: Vec<SenderEndpoint<Blob>> =
            (0..3).map(|i| SenderEndpoint::new(c.clone(), i, ring.clone())).collect();
        // Certify positions 1 and 3 (gap at 2) on sender 0.
        for p in [1u64, 3] {
            let m = Blob::new(format!("m{p}").as_bytes());
            let mut outs: Vec<Vec<Action<Blob>>> = vec![Vec::new(); 3];
            for (i, s) in senders.iter_mut().enumerate() {
                s.send_batch(0, Position(p), vec![m.clone()], &mut outs[i]);
            }
            // Deliver all shares to everyone.
            for (i, out) in outs.iter().enumerate() {
                let shares: Vec<(usize, ChannelMsg<Blob>)> = out
                    .iter()
                    .filter_map(|a| match a {
                        Action::ToPeerSender { to, msg } => Some((*to, msg.clone())),
                        _ => None,
                    })
                    .collect();
                for (to, msg) in shares {
                    let mut sink = Vec::new();
                    let _ = senders[to].on_peer_message(i, msg, &mut sink);
                }
            }
        }
        let mut out = Vec::new();
        senders[0].tick(SimTime::ZERO, &mut out);
        let progress = out
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { msg: ChannelMsg::Progress { positions }, .. } => {
                    Some(positions.clone())
                }
                _ => None,
            })
            .expect("progress announced");
        assert_eq!(progress, vec![(0, Position(1))], "stops at the gap");
    }

    // ------------------------------------------------------------------
    // Range certification
    // ------------------------------------------------------------------

    fn range_cfg(variant: Variant, capacity: u64, max_range: usize) -> IrmcConfig {
        IrmcConfig::new(variant, 3, 1, 3, 1, capacity)
            .with_cost(spider_crypto::CostModel::zero())
            .with_range(max_range, SimTime::ZERO)
    }

    fn blobs(first: u64, n: u64) -> Vec<Blob> {
        (first..first + n).map(|i| Blob::new(format!("m{i}").as_bytes())).collect()
    }

    #[test]
    fn rc_send_many_ships_one_signed_range_per_receiver() {
        let mut s: SenderEndpoint<Blob> =
            SenderEndpoint::new(range_cfg(Variant::ReceiverCollect, 16, 8), 0, Keyring::new(5));
        let mut out = Vec::new();
        let st = s.send_batch(0, Position(1), blobs(1, 5), &mut out);
        assert_eq!(st, SendStatus::Sent);
        let ranges: Vec<u64> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToReceiver { msg: ChannelMsg::SendRange { first, msgs, .. }, .. } => {
                    assert_eq!(msgs.len(), 5);
                    Some(first.0)
                }
                _ => None,
            })
            .collect();
        assert_eq!(ranges, vec![1, 1, 1], "one range message per receiver");
        assert!(!out
            .iter()
            .any(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::Send { .. }, .. })));
    }

    #[test]
    fn send_many_chunks_at_max_range() {
        let mut s: SenderEndpoint<Blob> =
            SenderEndpoint::new(range_cfg(Variant::ReceiverCollect, 32, 4), 0, Keyring::new(5));
        let mut out = Vec::new();
        s.send_batch(0, Position(1), blobs(1, 10), &mut out);
        let mut firsts: Vec<(u64, usize)> = out
            .iter()
            .filter_map(|a| match a {
                Action::ToReceiver { to: 0, msg: ChannelMsg::SendRange { first, msgs, .. } } => {
                    Some((first.0, msgs.len()))
                }
                _ => None,
            })
            .collect();
        firsts.sort_unstable();
        assert_eq!(firsts, vec![(1, 4), (5, 4), (9, 2)], "deterministic chunking from `first`");
    }

    #[test]
    fn singleton_batch_degenerates_to_legacy_per_slot_frame() {
        let ring = Keyring::new(5);
        let c = range_cfg(Variant::ReceiverCollect, 16, 8);
        let mut ep: SenderEndpoint<Blob> = SenderEndpoint::new(c, 0, ring);
        let mut out = Vec::new();
        ep.send_batch(0, Position(1), vec![Blob::new(b"solo")], &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::Send { .. }, .. })),
            "a singleton uses the legacy per-slot frame, not a range"
        );
    }

    // ------------------------------------------------------------------
    // RC digest-only fan-in (dedup)
    // ------------------------------------------------------------------

    fn dedup_cfg(capacity: u64, max_range: usize) -> IrmcConfig {
        range_cfg(Variant::ReceiverCollect, capacity, max_range)
            .with_mode(crate::ChannelMode::ReliableCast { dedup: true })
    }

    #[test]
    fn dedup_carrier_ships_content_others_vouch() {
        let ring = Keyring::new(5);
        let c = dedup_cfg(16, 8);
        let msgs = blobs(1, 4);
        let carrier = carrier_for(0, Position(1), c.n_senders);
        for me in 0..c.n_senders {
            let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), me, ring.clone());
            let mut out = Vec::new();
            s.send_batch(0, Position(1), msgs.clone(), &mut out);
            let ships_content = out
                .iter()
                .any(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::SendRange { .. }, .. }));
            let vouches = out
                .iter()
                .filter(|a| {
                    matches!(a, Action::ToReceiver { msg: ChannelMsg::RangeVouch { .. }, .. })
                })
                .count();
            if me == carrier {
                assert!(ships_content, "the carrier ships the signed content");
                assert_eq!(vouches, 0);
            } else {
                assert!(!ships_content, "non-carriers never ship content up front");
                assert_eq!(vouches, c.n_receivers, "one digest-only vouch per receiver");
            }
        }
    }

    #[test]
    fn dedup_vouch_carries_the_carrier_root() {
        let ring = Keyring::new(5);
        let c = dedup_cfg(16, 8);
        let msgs = blobs(1, 4);
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let voucher = (carrier + 1) % c.n_senders;
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c, voucher, ring);
        let mut out = Vec::new();
        s.send_batch(0, Position(1), msgs.clone(), &mut out);
        let leaves: Vec<Digest> = msgs.iter().map(|m| m.digest()).collect();
        let want = merkle_root(&leaves);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToReceiver { msg: ChannelMsg::RangeVouch { root, count: 4, .. }, .. }
                if *root == want
        )));
    }

    #[test]
    fn dedup_voucher_serves_fetch_range() {
        let ring = Keyring::new(5);
        let c = dedup_cfg(16, 8);
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let voucher = (carrier + 1) % c.n_senders;
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c, voucher, ring);
        let mut out = Vec::new();
        s.send_batch(0, Position(1), blobs(1, 4), &mut out);
        out.clear();
        let res = s.on_receiver_message(
            2,
            ReceiverMsg::FetchRange { sc: 0, first: Position(1), count: 4 },
            &mut out,
        );
        assert_eq!(res, Ok(()));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToReceiver { to: 2, msg: ChannelMsg::RangeContent { first: Position(1), msgs, .. } }
                if msgs.len() == 4
        )));
        // A mismatched count is a malformed request, not a crash.
        out.clear();
        let res = s.on_receiver_message(
            2,
            ReceiverMsg::FetchRange { sc: 0, first: Position(1), count: 3 },
            &mut out,
        );
        assert!(matches!(res, Err(IrmcError::MalformedRange { .. })));
        // An unknown (already GC'd) range is served with silence.
        let res = s.on_receiver_message(
            2,
            ReceiverMsg::FetchRange { sc: 0, first: Position(9), count: 4 },
            &mut out,
        );
        assert_eq!(res, Ok(()));
    }

    #[test]
    fn dedup_off_and_singletons_stay_on_the_legacy_path() {
        let ring = Keyring::new(5);
        // dedup off: byte-identical to the legacy RC fan-out.
        let mut legacy: SenderEndpoint<Blob> =
            SenderEndpoint::new(range_cfg(Variant::ReceiverCollect, 16, 8), 0, ring.clone());
        let mut off: SenderEndpoint<Blob> = SenderEndpoint::new(
            range_cfg(Variant::ReceiverCollect, 16, 8)
                .with_mode(crate::ChannelMode::ReliableCast { dedup: false }),
            0,
            ring.clone(),
        );
        let mut out_legacy = Vec::new();
        let mut out_off = Vec::new();
        legacy.send_batch(0, Position(1), blobs(1, 5), &mut out_legacy);
        off.send_batch(0, Position(1), blobs(1, 5), &mut out_off);
        assert_eq!(out_legacy, out_off, "dedup off is the legacy RC path, byte for byte");
        // dedup on, range of 1: degenerates to the legacy single-slot
        // frame on every sender (no carrier election for singletons).
        for me in 0..3 {
            let mut s: SenderEndpoint<Blob> =
                SenderEndpoint::new(dedup_cfg(16, 8), me, ring.clone());
            let mut legacy: SenderEndpoint<Blob> =
                SenderEndpoint::new(range_cfg(Variant::ReceiverCollect, 16, 8), me, ring.clone());
            let mut out_dedup = Vec::new();
            let mut out_legacy = Vec::new();
            s.send_batch(0, Position(1), vec![Blob::new(b"solo")], &mut out_dedup);
            legacy.send_batch(0, Position(1), vec![Blob::new(b"solo")], &mut out_legacy);
            assert_eq!(out_dedup, out_legacy, "sender {me}: singleton ignores dedup");
        }
    }

    #[test]
    fn dedup_vouching_skips_the_signature_charge() {
        let ring = Keyring::new(5);
        let c = dedup_cfg(16, 8).with_cost(spider_crypto::CostModel::default());
        let msgs = blobs(1, 8);
        let carrier = carrier_for(0, Position(1), c.n_senders);
        let voucher = (carrier + 1) % c.n_senders;
        let charge_sum = |out: &[Action<Blob>]| {
            out.iter()
                .filter_map(|a| match a {
                    Action::Charge(t, _) => Some(*t),
                    _ => None,
                })
                .fold(SimTime::ZERO, |acc, t| acc + t)
        };
        let mut s_carrier: SenderEndpoint<Blob> =
            SenderEndpoint::new(c.clone(), carrier, ring.clone());
        let mut s_voucher: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), voucher, ring);
        let mut out_c = Vec::new();
        let mut out_v = Vec::new();
        s_carrier.send_batch(0, Position(1), msgs.clone(), &mut out_c);
        s_voucher.send_batch(0, Position(1), msgs, &mut out_v);
        let (cc, cv) = (charge_sum(&out_c), charge_sum(&out_v));
        // Same hashing on both; the carrier pays the RSA signature, the
        // voucher a MAC over the 52-byte statement instead.
        assert!(
            cc + c.cost.hmac(52) >= cv + c.cost.rsa_sign(),
            "vouching must not pay the RSA signature: carrier {cc:?} vs voucher {cv:?}"
        );
        assert!(cv * 10 < cc, "a voucher's CPU is a small fraction of the carrier's");
    }

    #[test]
    fn blocked_range_flushes_atomically_after_window_move() {
        let mut s: SenderEndpoint<Blob> =
            SenderEndpoint::new(range_cfg(Variant::ReceiverCollect, 4, 4), 0, Keyring::new(5));
        let mut out = Vec::new();
        // Window [1,4]: the chunk 5..=8 must queue as a unit.
        let st = s.send_batch(0, Position(5), blobs(5, 4), &mut out);
        assert_eq!(st, SendStatus::Blocked);
        assert!(!out.iter().any(|a| matches!(a, Action::ToReceiver { .. })));
        out.clear();
        let _ = s.on_receiver_message(0, ReceiverMsg::Move { sc: 0, p: Position(5) }, &mut out);
        let _ = s.on_receiver_message(1, ReceiverMsg::Move { sc: 0, p: Position(5) }, &mut out);
        let range = out
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: ChannelMsg::SendRange { first, msgs, .. } } => {
                    Some((first.0, msgs.len()))
                }
                _ => None,
            })
            .expect("blocked range transmitted");
        assert_eq!(range, (5, 4), "the whole chunk ships with its original boundary");
    }

    #[test]
    fn sc_send_many_overlap_ships_content_before_shares_and_cert_after() {
        let ring = Keyring::new(5);
        let c = range_cfg(Variant::SenderCollect, 16, 8);
        let mut s0: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), 0, ring.clone());
        let mut s1: SenderEndpoint<Blob> = SenderEndpoint::new(c, 1, ring);
        let msgs = blobs(1, 4);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        s0.send_batch(0, Position(1), msgs.clone(), &mut out0);
        s1.send_batch(0, Position(1), msgs, &mut out1);
        // §A.9 overlap: content to this sender's receiver ships immediately…
        assert!(out0.iter().any(|a| matches!(
            a,
            Action::ToReceiver { to: 0, msg: ChannelMsg::RangeContent { .. } }
        )));
        // …but no certificate yet (only the own share exists).
        assert!(!out0.iter().any(|a| matches!(
            a,
            Action::ToReceiver { msg: ChannelMsg::RangeCertificate { .. }, .. }
        )));
        // One RangeShare per peer, no per-slot SigShares.
        let shares: Vec<&Action<Blob>> = out0
            .iter()
            .filter(|a| {
                matches!(a, Action::ToPeerSender { msg: ChannelMsg::RangeShare { .. }, .. })
            })
            .collect();
        assert_eq!(shares.len(), 2);
        assert!(!out0
            .iter()
            .any(|a| matches!(a, Action::ToPeerSender { msg: ChannelMsg::SigShare { .. }, .. })));
        // Deliver s1's range share to s0: certificate completes, and the
        // content is NOT re-shipped (shares-only certificate).
        let share = out1
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 0, msg } => Some(msg.clone()),
                _ => None,
            })
            .expect("share for s0");
        let mut out = Vec::new();
        let _ = s0.on_peer_message(1, share, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToReceiver { to: 0, msg: ChannelMsg::RangeCertificate { shares, .. } }
                if shares.len() == 2
        )));
        assert!(
            !out.iter().any(|a| matches!(
                a,
                Action::ToReceiver { msg: ChannelMsg::RangeContent { .. }, .. }
            )),
            "content already overlapped; only the compact certificate ships"
        );
    }

    #[test]
    fn sc_without_overlap_ships_content_with_certificate() {
        let ring = Keyring::new(5);
        let c = range_cfg(Variant::SenderCollect, 16, 8)
            .with_mode(crate::ChannelMode::SenderCast { overlap: false });
        let mut s0: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), 0, ring.clone());
        let mut s1: SenderEndpoint<Blob> = SenderEndpoint::new(c, 1, ring);
        let msgs = blobs(1, 4);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        s0.send_batch(0, Position(1), msgs.clone(), &mut out0);
        s1.send_batch(0, Position(1), msgs, &mut out1);
        assert!(
            !out0.iter().any(|a| matches!(
                a,
                Action::ToReceiver { msg: ChannelMsg::RangeContent { .. }, .. }
            )),
            "ship-after-bundle holds content back"
        );
        let share = out1
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 0, msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let mut out = Vec::new();
        let _ = s0.on_peer_message(1, share, &mut out);
        let content_at = out.iter().position(|a| {
            matches!(a, Action::ToReceiver { msg: ChannelMsg::RangeContent { .. }, .. })
        });
        let cert_at = out.iter().position(|a| {
            matches!(a, Action::ToReceiver { msg: ChannelMsg::RangeCertificate { .. }, .. })
        });
        assert!(content_at.is_some() && content_at < cert_at, "content ships with the cert");
    }

    #[test]
    fn sc_select_reships_range_bundles() {
        let ring = Keyring::new(5);
        let c = range_cfg(Variant::SenderCollect, 16, 8);
        let mut s1: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), 1, ring.clone());
        let mut s0: SenderEndpoint<Blob> = SenderEndpoint::new(c, 0, ring);
        let msgs = blobs(1, 3);
        let mut out0 = Vec::new();
        let mut out1 = Vec::new();
        s0.send_batch(0, Position(1), msgs.clone(), &mut out0);
        s1.send_batch(0, Position(1), msgs, &mut out1);
        let share = out0
            .iter()
            .find_map(|a| match a {
                Action::ToPeerSender { to: 1, msg } => Some(msg.clone()),
                _ => None,
            })
            .unwrap();
        let mut out = Vec::new();
        let _ = s1.on_peer_message(0, share, &mut out);
        out.clear();
        // Receiver 0 switches to s1: both content and certificate re-ship.
        let _ = s1.on_receiver_message(0, ReceiverMsg::Select { sc: 0, collector: 1 }, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToReceiver { to: 0, msg: ChannelMsg::RangeContent { .. } }
        )));
        assert!(out.iter().any(|a| matches!(
            a,
            Action::ToReceiver { to: 0, msg: ChannelMsg::RangeCertificate { .. } }
        )));
    }

    #[test]
    fn sc_diverged_range_boundaries_heal_via_per_slot_fallback() {
        let ring = Keyring::new(5);
        let c = range_cfg(Variant::SenderCollect, 16, 8);
        let mut s0: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), 0, ring.clone());
        let mut s1: SenderEndpoint<Blob> = SenderEndpoint::new(c, 1, ring);
        // Same content, different boundaries: s0 sends 1..=4 as one range,
        // s1 as 1..=2 and 3..=4. Range shares never match.
        let mut out0 = Vec::new();
        let mut sink = Vec::new();
        s0.send_batch(0, Position(1), blobs(1, 4), &mut out0);
        s1.send_batch(0, Position(1), blobs(1, 2), &mut sink);
        s1.send_batch(0, Position(3), blobs(3, 2), &mut sink);
        for a in sink.drain(..) {
            if let Action::ToPeerSender { to: 0, msg } = a {
                let _ = s0.on_peer_message(1, msg, &mut Vec::new());
            }
        }
        assert!(
            !out0.iter().any(|a| matches!(
                a,
                Action::ToReceiver { msg: ChannelMsg::RangeCertificate { .. }, .. }
            )),
            "mismatched boundaries cannot certify as ranges"
        );
        // Two stalled ticks trigger the per-slot fallback on both sides.
        let mut fb0 = Vec::new();
        let mut fb1 = Vec::new();
        for _ in 0..3 {
            fb0.clear();
            fb1.clear();
            s0.tick(SimTime::ZERO, &mut fb0);
            s1.tick(SimTime::ZERO, &mut fb1);
            for a in fb1.clone() {
                if let Action::ToPeerSender { to: 0, msg } = a {
                    let _ = s0.on_peer_message(1, msg, &mut fb0);
                }
            }
            for a in fb0.clone() {
                if let Action::ToPeerSender { to: 1, msg } = a {
                    let _ = s1.on_peer_message(0, msg, &mut fb1);
                }
            }
        }
        // s0 eventually ships single-slot certificates for all four slots.
        let mut outs = Vec::new();
        s0.tick(SimTime::ZERO, &mut outs);
        let progress = outs
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { msg: ChannelMsg::Progress { positions }, .. } => {
                    Some(positions.clone())
                }
                _ => None,
            })
            .or_else(|| {
                // Progress may have been announced during the heal ticks.
                fb0.iter().find_map(|a| match a {
                    Action::ToReceiver { msg: ChannelMsg::Progress { positions }, .. } => {
                        Some(positions.clone())
                    }
                    _ => None,
                })
            });
        assert_eq!(progress, Some(vec![(0, Position(4))]), "fallback certified the whole run");
    }

    #[test]
    fn linger_buffers_contiguous_sends_and_flushes_on_deadline() {
        let c = IrmcConfig::new(Variant::ReceiverCollect, 3, 1, 3, 1, 32)
            .with_cost(spider_crypto::CostModel::zero())
            .with_range(8, SimTime::from_millis(5));
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c, 0, Keyring::new(5));
        let mut out = Vec::new();
        for p in 1..=3u64 {
            s.send_buffered(
                0,
                Position(p),
                Blob::new(format!("m{p}").as_bytes()),
                SimTime::ZERO,
                &mut out,
            );
        }
        assert!(out.iter().all(|a| !matches!(a, Action::ToReceiver { .. })), "lingering");
        // Before the deadline nothing flushes; after it the run ships as
        // one range.
        s.tick(SimTime::from_millis(1), &mut out);
        assert!(out.iter().all(|a| !matches!(a, Action::ToReceiver { .. })));
        s.tick(SimTime::from_millis(5), &mut out);
        let range = out
            .iter()
            .find_map(|a| match a {
                Action::ToReceiver { to: 0, msg: ChannelMsg::SendRange { first, msgs, .. } } => {
                    Some((first.0, msgs.len()))
                }
                _ => None,
            })
            .expect("deadline flushed the run");
        assert_eq!(range, (1, 3));
    }

    #[test]
    fn linger_flushes_when_full_or_non_contiguous() {
        let c = IrmcConfig::new(Variant::ReceiverCollect, 3, 1, 3, 1, 32)
            .with_cost(spider_crypto::CostModel::zero())
            .with_range(2, SimTime::from_millis(50));
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c, 0, Keyring::new(5));
        let mut out = Vec::new();
        s.send_buffered(0, Position(1), Blob::new(b"a"), SimTime::ZERO, &mut out);
        s.send_buffered(0, Position(2), Blob::new(b"b"), SimTime::ZERO, &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::SendRange { .. }, .. })),
            "full buffer flushes immediately"
        );
        out.clear();
        s.send_buffered(0, Position(5), Blob::new(b"c"), SimTime::ZERO, &mut out);
        s.send_buffered(0, Position(9), Blob::new(b"d"), SimTime::ZERO, &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, Action::ToReceiver { msg: ChannelMsg::Send { .. }, .. })),
            "a non-contiguous position flushes the pending (single) run"
        );
    }
}
