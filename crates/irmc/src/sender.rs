//! Sender-side IRMC endpoint (Fig 18 sender half; Fig 19 for IRMC-SC).
//!
//! [`SenderEndpoint::send_batch`] is the one way in: a contiguous run of
//! slots is certified by **one** RSA signature over the root of its
//! per-slot digests (see [`crate::messages`]) — the saturating cost of a
//! loaded commit channel, amortized — and a run of one slot is the
//! paper's per-slot protocol, through the same code. For IRMC-SC the
//! collector additionally overlaps WAN content shipping of a range with
//! the intra-region share exchange (§A.9): content ships as soon as it
//! is submitted, the certificate follows shares-only. For IRMC-RC with
//! [`crate::ChannelMode::ReliableCast`] `{ dedup: true }`, a
//! deterministically-rotated primary carrier ships the one signed
//! content copy of a range while the other senders confirm it with a
//! digest-only [`ChannelMsg::Vouch`], and every sender retains the
//! content to answer a receiver's [`ReceiverMsg::FetchRange`] should the
//! carrier stall.
//!
//! Run boundaries must match across correct senders for SC shares to
//! combine; callers therefore cut runs at deterministic points (the
//! agreement replicas use consensus batch boundaries). If boundaries
//! still diverge (e.g. one replica replays after a checkpoint restore),
//! [`SenderEndpoint::tick`] notices certification stalling and re-shares
//! the stalled slots one by one, which matches regardless of boundaries.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::config::{IrmcConfig, Variant};
use crate::messages::{carrier_for, range_digest, ChannelMsg, ReceiverMsg, Run, RunCost};
use crate::ring::RunRing;
use crate::window::Window;
use crate::{Action, Content, IrmcError, Subchannel};
use spider_crypto::{Digest, Keyring, Signature};
use spider_types::{Position, SimTime, Sink};
use std::collections::BTreeMap;

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

/// RC: consecutive window-stalled ticks (one every
/// [`TICK_INTERVAL`](crate::TICK_INTERVAL)) before retained content is
/// re-cast — 500 ms, comfortably above a WAN round trip, so the recast
/// never fires while the original casts are still in flight.
pub const RC_RECAST_TICKS: u8 = 25;

/// A run this endpoint submitted, retained until the window moves past
/// it: SC assembles and re-ships certificates from it, RC answers a
/// receiver's [`ReceiverMsg::FetchRange`] with it when the dedup carrier
/// stalls and re-casts it when the window itself stalls (a healed
/// partition may have eaten the original casts).
#[derive(Debug)]
struct Submitted<M> {
    run: Run<M>,
    /// SC: receivers the raw content already went to (§A.9 overlap, or
    /// with an earlier certificate); sized on first use.
    shipped: Vec<bool>,
}

impl<M> Submitted<M> {
    fn len(&self) -> u64 {
        self.run.len() as u64
    }

    /// Marks the content as shipped to receiver `r`; returns whether it
    /// already was.
    fn mark_shipped(&mut self, r: usize, n_receivers: usize) -> bool {
        if self.shipped.is_empty() {
            self.shipped = vec![false; n_receivers];
        }
        self.shipped.get_mut(r).is_some_and(|flag| std::mem::replace(flag, true))
    }
}

/// SC: an assembled certificate.
#[derive(Debug)]
struct Certified<M> {
    run: Run<M>,
    shares: Vec<Signature>,
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
    /// (SC shares only combine over identical runs, and the RC dedup
    /// carrier rotation keys on the chunk's first position).
    blocked: BTreeMap<u64, Run<M>>,
    /// What this endpoint submitted, by first position.
    runs: RunRing<Submitted<M>>,
    /// SC: the statement each sender shared for a run `(first, count)` —
    /// its root and signature. First statement per sender wins (Fig 19
    /// L17), so a faulty peer cannot grow this beyond the window.
    shares: BTreeMap<(u64, u32), BTreeMap<usize, (Digest, Signature)>>,
    /// SC: assembled certificates, by first position. No two overlap.
    certs: BTreeMap<u64, Certified<M>>,
    /// Cached gap-free certified high-watermark: every position in
    /// `[awin.start, certified_hwm]` is certified; a value below the
    /// window start means "none yet". Advanced incrementally instead of
    /// rescanning from the window start on every tick.
    certified_hwm: u64,
    /// Watermark observed at the previous tick plus a stall counter:
    /// drives the per-slot fallback for diverged run boundaries.
    last_tick_hwm: u64,
    stalled_ticks: u8,
    /// RC: window start observed at the previous recast tick plus a
    /// stall counter — drives the re-cast of retained content when the
    /// window sits still with undelivered slots (healed partition).
    rc_last_start: u64,
    rc_stall_ticks: u8,
}

impl<M: Content> SenderSub<M> {
    fn new(capacity: u64, n_receivers: usize) -> Self {
        SenderSub {
            awin: Window::new(capacity),
            receiver_starts: vec![Position(1); n_receivers],
            starts_scratch: Vec::new(),
            my_move: Position(0),
            blocked: BTreeMap::new(),
            runs: RunRing::default(),
            shares: BTreeMap::new(),
            certs: BTreeMap::new(),
            certified_hwm: 0,
            last_tick_hwm: 0,
            stalled_ticks: 0,
            rc_last_start: 0,
            rc_stall_ticks: 0,
        }
    }

    fn gc_below(&mut self, start: Position) {
        let s = start.0;
        self.blocked.retain(|&p, chunk| p + chunk.len() as u64 > s);
        self.runs.retain(|p, run| p + run.len() > s);
        self.shares.retain(|&(p, count), _| p + count as u64 > s);
        self.certs.retain(|&p, cert| p + cert.run.len() as u64 > s);
    }

    /// Whether any slot of `[first, first + count)` is covered by a
    /// certificate (certificates never overlap, so the last one starting
    /// before the run's end decides).
    fn certified(&self, first: u64, count: u64) -> bool {
        let last = self.certs.range(..first + count).next_back();
        last.is_some_and(|(start, cert)| start + cert.run.len() as u64 > first)
    }

    /// Advances the cached gap-free certified watermark.
    fn advance_hwm(&mut self) {
        let start = self.awin.start().0;
        if self.certified_hwm + 1 < start {
            self.certified_hwm = start - 1;
        }
        while self.certified(self.certified_hwm + 1, 1) {
            self.certified_hwm += 1;
        }
    }

    /// Highest gap-free certified position from the window start, if any.
    fn progress(&self) -> Option<Position> {
        (self.certified_hwm >= self.awin.start().0).then_some(Position(self.certified_hwm))
    }

    /// The content this endpoint submitted for slot `p`, if it still
    /// holds it.
    fn slot(&self, p: u64) -> Option<&M> {
        let (first, held) = self.runs.at_or_below(p)?;
        held.run.get((p - first) as usize)
    }

    /// This endpoint's own content for the statement `(first, count)`: a
    /// run exactly as submitted, or — what the stalled-certification
    /// fallback shares — one slot out of a longer run (a copy, and so a
    /// run of its own; the fallback is rare).
    fn statement(&self, first: u64, count: u32) -> Option<Run<M>> {
        match self.runs.get(first) {
            Some(held) if held.len() == count as u64 => Some(held.run.clone()),
            _ if count == 1 => self.slot(first).map(|m| Run::one(m.clone())),
            _ => None,
        }
    }

    /// Whether the receiver quorum still owes progress on something:
    /// retained content the window has not moved past, or sends queued
    /// behind it.
    fn unacked(&self) -> bool {
        // `gc_below` keeps `runs` to what reaches into the window.
        !self.blocked.is_empty() || !self.runs.is_empty()
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

    /// The receivers this endpoint currently collects for on `sc`.
    fn my_receivers(&self, sc: Subchannel) -> Vec<usize> {
        (0..self.cfg.n_receivers).filter(|&r| self.collector_for(sc, r) == self.me).collect()
    }

    fn sub(&mut self, sc: Subchannel) -> &mut SenderSub<M> {
        let (capacity, n_receivers) = (self.cfg.capacity, self.cfg.n_receivers);
        self.subs.entry(sc).or_insert_with(|| SenderSub::new(capacity, n_receivers))
    }

    /// Largest run this channel actually certifies: the configured cap,
    /// bounded by the window capacity (a longer run could never fit).
    fn range_cap(&self) -> usize {
        self.cfg.max_range.min(self.cfg.capacity as usize).max(1)
    }

    /// Submits a contiguous run of slots `[first, first + msgs.len())` in
    /// one call — the single submission entry point. Runs longer than
    /// [`IrmcConfig::max_range`] are chunked, each chunk certified by one
    /// RSA signature (and one verification per receiver, per share for
    /// SC) instead of one per slot.
    ///
    /// Chunk boundaries are derived from `first`, so callers submitting
    /// identical runs produce identical chunks (required for SC share
    /// matching and RC dedup carrier rotation). Chunks above the window
    /// queue atomically and flush on [`Action::Unblocked`].
    ///
    /// A [`Run`] that is one chunk is submitted (or queued) as that very
    /// run, so a host sending the same content down several channels
    /// builds and hashes it once; only a run longer than the cap, or one
    /// reaching below the window, is cut into new runs.
    ///
    /// Returns `TooOld` if every slot is below the window, `Blocked` if
    /// nothing could be transmitted yet, `Sent` otherwise.
    pub fn send_batch(
        &mut self,
        sc: Subchannel,
        first: Position,
        msgs: impl Into<Run<M>>,
        out: &mut dyn Sink<Action<M>>,
    ) -> SendStatus {
        let run = msgs.into();
        if run.is_empty() {
            return SendStatus::Sent;
        }
        let cap = self.range_cap();
        let start = self.sub(sc).awin.start();
        let mut status = SendStatus::TooOld(start);
        let mut offset = 0;
        while offset < run.len() {
            let n = (run.len() - offset).min(cap);
            let chunk_first = first.0 + offset as u64;
            let chunk_end = chunk_first + n as u64 - 1;
            let chunk = offset..offset + n;
            offset += n;
            if chunk_end < start.0 {
                // Entire chunk below the window: receivers moved on.
                continue;
            }
            let sub = self.sub(sc);
            if sub.awin.is_above(Position(chunk_end)) {
                // Queue the whole chunk so its boundary survives the wait.
                sub.blocked.insert(chunk_first, run.sub_run(chunk));
                if status != SendStatus::Sent {
                    status = SendStatus::Blocked;
                }
            } else {
                let (f, c) = trim_below(chunk_first, run.sub_run(chunk), start.0);
                self.submit(sc, f, c, out);
                status = SendStatus::Sent;
            }
        }
        status
    }

    /// Requests a forward shift of the subchannel window (Fig 14
    /// `move_window`, sender side): broadcast a `Move` to all receivers.
    /// The local window only moves once `fr + 1` receivers confirm.
    pub fn move_window(&mut self, sc: Subchannel, p: Position, out: &mut dyn Sink<Action<M>>) {
        let sub = self.sub(sc);
        if p <= sub.my_move {
            return;
        }
        sub.my_move = p;
        out.emit(Action::Charge(self.cfg.cost.hmac(32), "window_mac"));
        for r in 0..self.cfg.n_receivers {
            out.emit(Action::ToReceiver { to: r, msg: ChannelMsg::Move { sc, p } });
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
        out: &mut dyn Sink<Action<M>>,
    ) -> Result<(), IrmcError> {
        if from >= self.cfg.n_receivers {
            return Err(IrmcError::UnknownEndpoint { index: from });
        }
        // MAC check on every receiver message.
        out.emit(Action::Charge(self.cfg.cost.hmac(32), "msg_mac"));
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
                if !self.cfg.dedup() {
                    return Err(IrmcError::WrongVariant);
                }
                self.cfg.check_count(sc, first, count as u64)?;
                let Some(held) = self.sub(sc).runs.get(first.0) else {
                    // Already GC'd (the window moved past it) or cut at a
                    // different boundary: the receiver will ask another
                    // voucher, so staying quiet is safe.
                    return Ok(());
                };
                if held.len() != count as u64 {
                    return Err(IrmcError::MalformedRange { sc, first, count: count as u64 });
                }
                let msgs = held.run.clone();
                // MAC the re-shipped content for the requesting receiver;
                // it carries no signature — the receiver verifies it by
                // root comparison against the vouch quorum.
                out.emit(Action::Charge(self.cfg.cost.hmac(msgs.bytes()), "refetch_serve"));
                out.emit(Action::ToReceiver {
                    to: from,
                    msg: ChannelMsg::Content { sc, first, msgs },
                });
                Ok(())
            }
        }
    }

    /// Re-ships everything certified so far to a receiver that just
    /// selected this endpoint as collector (Fig 19 L39). Runs are shared,
    /// so this clones pointers, not content.
    fn reship_bundles(&mut self, sc: Subchannel, to: usize, out: &mut dyn Sink<Action<M>>) {
        let Some(sub) = self.subs.get(&sc) else {
            return;
        };
        // One-slot certificates first, then ranges: sends depart in
        // emission order, and that is the order they have always left in.
        let mut certs: Vec<(bool, u64)> = sub
            .certs
            .iter()
            .map(|(&first, cert)| (RunCost::of(&self.cfg.cost, &cert.run).ranged, first))
            .collect();
        certs.sort_unstable();
        for (_, first) in certs {
            self.ship_certificate(sc, first, to, true, "reship", out);
        }
    }

    /// Ships the certificate at `first` to receiver `to`, charging its
    /// transport MACs under `label`: a range as shares only, preceded by
    /// its content if the receiver does not hold that yet (or `resend`
    /// says to ship it regardless); one slot as a single message with
    /// the content inline.
    fn ship_certificate(
        &mut self,
        sc: Subchannel,
        first: u64,
        to: usize,
        resend: bool,
        label: &'static str,
        out: &mut dyn Sink<Action<M>>,
    ) {
        let (cost, n_receivers) = (&self.cfg.cost, self.cfg.n_receivers);
        let Some(sub) = self.subs.get_mut(&sc) else {
            return;
        };
        let Some(cert) = sub.certs.get(&first) else {
            return;
        };
        let price = RunCost::of(cost, &cert.run);
        let (mut mac, mut content) = (price.bytes, Some(cert.run.clone()));
        if price.ranged {
            let held = sub.runs.get_mut(first).is_some_and(|r| r.mark_shipped(to, n_receivers));
            if resend || !held {
                out.emit(Action::Charge(cost.hmac(price.bytes), label));
                let msgs = cert.run.clone();
                let msg = ChannelMsg::Content { sc, first: Position(first), msgs };
                out.emit(Action::ToReceiver { to, msg });
            }
            (mac, content) = (32, None);
        }
        out.emit(Action::Charge(cost.hmac(mac), label));
        let (count, root, shares) = (cert.run.len() as u32, cert.run.root(), cert.shares.clone());
        let msg =
            ChannelMsg::Certificate { sc, first: Position(first), count, root, shares, content };
        out.emit(Action::ToReceiver { to, msg });
    }

    fn on_receiver_move(
        &mut self,
        from: usize,
        sc: Subchannel,
        p: Position,
        out: &mut dyn Sink<Action<M>>,
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
            out.emit(Action::WindowMoved { sc, start: new_start });
            self.flush_blocked(sc, out);
        }
        Ok(())
    }

    /// Transmits queued sends that fit into the (moved) window.
    fn flush_blocked(&mut self, sc: Subchannel, out: &mut dyn Sink<Action<M>>) {
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
            out.emit(Action::Unblocked { sc, p: Position(f) });
            self.submit(sc, f, chunk, out);
        }
    }

    /// Submits an in-window contiguous run: hashes every payload, signs
    /// **one** statement over the run, and ships a single message per
    /// destination (see [`RunCost`] for what a run of one slot does not
    /// take part in).
    fn submit(&mut self, sc: Subchannel, first: u64, msgs: Run<M>, out: &mut dyn Sink<Action<M>>) {
        if msgs.is_empty() {
            return;
        }
        let n_receivers = self.cfg.n_receivers;
        let count = msgs.len() as u32;
        let mut held = Submitted { run: msgs.clone(), shipped: Vec::new() };
        if self.cfg.variant() == Variant::ReceiverCollect {
            self.sub(sc).runs.insert(first, held);
            self.cast(sc, first, &msgs, 0..n_receivers, None, out);
            return;
        }
        let cost = RunCost::of(&self.cfg.cost, &msgs);
        if cost.ranged {
            // Hash all payloads and build the tree.
            out.emit(Action::Charge(cost.hash, "range_hash"));
            if self.cfg.sc_overlap() {
                // §A.9: ship the raw content to the receivers this endpoint
                // collects for *before* spending the signature — content
                // carries no proof, so its WAN transfer overlaps both the
                // local RSA signing and the share exchange. The compact
                // shares-only certificate follows from `bundle`.
                for r in self.my_receivers(sc) {
                    held.mark_shipped(r, n_receivers);
                    out.emit(Action::Charge(self.cfg.cost.hmac(cost.bytes), "range_ship"));
                    let msg =
                        ChannelMsg::Content { sc, first: Position(first), msgs: msgs.clone() };
                    out.emit(Action::ToReceiver { to: r, msg });
                }
            }
        }
        self.sub(sc).runs.insert(first, held);
        self.share(sc, first, count, msgs.root(), cost.sign(self.cfg.cost.rsa_sign()), out);
    }

    /// RC: ships `run`, retained at `first`, to the receivers `to` — as
    /// this endpoint's signed copy, or, for a range of a dedup channel it
    /// is not the carrier of, as a digest-only vouch. A re-cast charges
    /// everything under the one label it is given.
    fn cast(
        &self,
        sc: Subchannel,
        first: u64,
        run: &Run<M>,
        to: impl Iterator<Item = usize>,
        recast: Option<&'static str>,
        out: &mut dyn Sink<Action<M>>,
    ) {
        let Some(key) = self.key_of_sender(self.me) else {
            return; // `new` validated `me`.
        };
        let cost = RunCost::of(&self.cfg.cost, run);
        let (count, first) = (run.len() as u32, Position(first));
        if cost.ranged {
            // Hash all payloads and build the tree.
            out.emit(Action::Charge(cost.hash, recast.unwrap_or("range_hash")));
            if self.cfg.dedup() && carrier_for(sc, first, self.cfg.n_senders) != self.me {
                // Digest-only fan-in: only the rotated primary carrier
                // signs and ships the content; everyone else confirms the
                // range with a vouch — a MAC over the fixed-size statement,
                // no signature: it is consumed by the receiving endpoint
                // only, never forwarded as proof (IRMC-RC trust model,
                // Fig 18). Everyone retains the content, so a receiver
                // whose carrier stays dark can fetch it from any voucher.
                out.emit(Action::Charge(self.cfg.cost.hmac(52), recast.unwrap_or("vouch_mac")));
                for r in to {
                    let msg = ChannelMsg::Vouch { sc, first, count, root: run.root() };
                    out.emit(Action::ToReceiver { to: r, msg });
                }
                return;
            }
        }
        // One RSA signature for the whole run. A receiver credits a signed
        // copy slot by slot, so its per-slot digests are kept with it; a
        // run that is only vouched for keeps its root alone.
        run.leaves();
        let (price, label) = cost.sign(self.cfg.cost.rsa_sign());
        out.emit(Action::Charge(price, recast.unwrap_or(label)));
        let sig = self.keyring.sign(key, &range_digest(sc, first, count, &run.root()));
        for r in to {
            let msg = ChannelMsg::Cast { sc, first, msgs: run.clone(), sig };
            out.emit(Action::ToReceiver { to: r, msg });
        }
    }

    /// SC: signs a statement — one RSA signature for the whole run, charged
    /// as `price` — records the share, sends it to the peers, and bundles
    /// if that completed a certificate.
    fn share(
        &mut self,
        sc: Subchannel,
        first: u64,
        count: u32,
        root: Digest,
        price: (SimTime, &'static str),
        out: &mut dyn Sink<Action<M>>,
    ) {
        let me = self.me;
        let Some(key) = self.key_of_sender(me) else {
            return; // `new` validated `me`; unreachable without a bad cfg.
        };
        out.emit(Action::Charge(price.0, price.1));
        let sig = self.keyring.sign(key, &range_digest(sc, Position(first), count, &root));
        self.sub(sc).shares.entry((first, count)).or_default().insert(me, (root, sig));
        for s in (0..self.cfg.n_senders).filter(|&s| s != me) {
            let msg = ChannelMsg::Share { sc, first: Position(first), count, root, sig };
            out.emit(Action::ToPeerSender { to: s, msg });
        }
        self.bundle(sc, first, count, out);
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
        out: &mut dyn Sink<Action<M>>,
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
            ChannelMsg::Share { sc, first, count, root, sig } => {
                self.cfg.check_count(sc, first, count as u64)?;
                let Some(key) = self.key_of_sender(from) else {
                    return Err(IrmcError::UnknownEndpoint { index: from });
                };
                // One verification vouches for the whole run.
                out.emit(Action::Charge(self.cfg.cost.rsa_verify(), "share_verify"));
                if !self.keyring.verify(key, &range_digest(sc, first, count, &root), &sig) {
                    return Err(IrmcError::BadSignature { sc, p: first });
                }
                let sub = self.sub(sc);
                if first.0.saturating_add(count as u64) <= sub.awin.start().0 {
                    return Ok(()); // Entirely below the window: a late duplicate.
                }
                if sub.awin.is_far_above(first) {
                    // Absurdly far above it (memory guard).
                    return Err(IrmcError::OutOfWindow { sc, p: first });
                }
                // Only the first statement per (run, sender) counts
                // (Fig 19 L17).
                sub.shares.entry((first.0, count)).or_default().entry(from).or_insert((root, sig));
                self.bundle(sc, first.0, count, out);
                Ok(())
            }
            // Receiver-bound frames have no business on the peer link; an
            // explicit list (not `_`) so a new wire variant must be triaged.
            ChannelMsg::Cast { .. }
            | ChannelMsg::Vouch { .. }
            | ChannelMsg::Content { .. }
            | ChannelMsg::Certificate { .. }
            | ChannelMsg::Progress { .. }
            | ChannelMsg::Move { .. } => Err(IrmcError::UnexpectedFrame),
        }
    }

    /// Assembles and ships a certificate once `fs + 1` shares over this
    /// endpoint's own statement for the run are present (Fig 19 L22-24).
    /// Content that was already shipped (§A.9 overlap) is not re-shipped —
    /// only the compact shares-only certificate goes out.
    fn bundle(&mut self, sc: Subchannel, first: u64, count: u32, out: &mut dyn Sink<Action<M>>) {
        let fs = self.cfg.fs;
        let sub = self.sub(sc);
        if sub.certified(first, count as u64) {
            return;
        }
        // Only bundle over content we submitted ourselves.
        let Some(run) = sub.statement(first, count) else {
            return;
        };
        let root = run.root();
        let Some(stated) = sub.shares.get(&(first, count)) else {
            return;
        };
        // The fs + 1 lowest-indexed senders that stated our root.
        let shares: Vec<Signature> =
            stated.values().filter(|(r, _)| *r == root).map(|(_, sig)| *sig).take(fs + 1).collect();
        if shares.len() <= fs {
            return;
        }
        sub.certs.insert(first, Certified { run, shares });
        sub.advance_hwm();
        for r in self.my_receivers(sc) {
            self.ship_certificate(sc, first, r, false, "bundle_mac", out);
        }
    }

    /// Periodic driver. IRMC-SC: falls back to per-slot shares when
    /// certification stalls (diverged run boundaries, e.g. after a
    /// checkpoint-restore replay) and emits `Progress` announcements from
    /// the cached gap-free certified watermark (Fig 19 L26-30). IRMC-RC:
    /// re-casts retained content when the window stalls.
    pub fn tick(&mut self, out: &mut dyn Sink<Action<M>>) {
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
        out.emit(Action::Charge(self.cfg.cost.hmac(positions.len() * 16), "progress_mac"));
        for r in 0..self.cfg.n_receivers {
            out.emit(Action::ToReceiver {
                to: r,
                msg: ChannelMsg::Progress { positions: positions.clone() },
            });
        }
    }

    /// Liveness net for diverged run boundaries: when the certified
    /// watermark has not moved for two consecutive ticks while submitted
    /// content sits uncertified, re-share the stalled slots as statements
    /// of one slot each — those match across senders regardless of how
    /// each cut its runs.
    fn fallback_stalled(&mut self, out: &mut dyn Sink<Action<M>>) {
        let cap = self.range_cap() as u64;
        let mut work: Vec<(Subchannel, u64, u64)> = Vec::new();
        for (&sc, sub) in &mut self.subs {
            sub.advance_hwm();
            let highest =
                sub.runs.iter().next_back().map_or(0, |(first, run)| first + run.len() - 1);
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
                if sub.certified(p, 1) {
                    continue;
                }
                let Some(root) = sub.slot(p).map(|m| m.digest()) else {
                    continue;
                };
                // The payload was hashed when its run was submitted.
                self.share(sc, p, 1, root, (self.cfg.cost.rsa_sign(), "slot_sign"), out);
            }
        }
    }

    /// RC liveness net for severed links: when the window has sat still
    /// for [`RC_RECAST_TICKS`] consecutive ticks with undelivered
    /// content, re-cast the retained in-window slots. The original casts
    /// went out exactly once at submit time; a partition that swallowed
    /// them would otherwise wedge the channel forever, because receivers
    /// that never saw a vouch cannot even ask to fetch.
    fn rc_recast_tick(&mut self, out: &mut dyn Sink<Action<M>>) {
        // The subchannels are out of `self` while they are walked, so a due
        // one is re-cast as it is reached (`cast` reads none of them).
        let mut subs = std::mem::take(&mut self.subs);
        for (&sc, sub) in &mut subs {
            let start = sub.awin.start().0;
            if !sub.unacked() {
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
                self.recast_sub(sc, sub, out);
            }
        }
        self.subs = subs;
    }

    /// Re-casts this endpoint's retained in-window content on `sc` to
    /// every receiver whose last announced window start still covers it.
    /// Receivers treat duplicates idempotently, and a receiver that
    /// already moved past a slot re-announces its window start on the
    /// below-window duplicate, so recasting converges rather than loops.
    fn recast_sub(&self, sc: Subchannel, sub: &SenderSub<M>, out: &mut dyn Sink<Action<M>>) {
        // Ranges first, then single slots (a run of one is not a range, see
        // `RunCost`), each in position order: sends depart in emission
        // order, and that is the order they have always left in.
        let ranges = sub.runs.iter().filter(|(_, held)| held.len() > 1);
        let slots = sub.runs.iter().filter(|(_, held)| held.len() == 1);
        for (first, held) in ranges.chain(slots) {
            let last = first + held.len() - 1;
            // Only receivers whose announced window still reaches the
            // run: the rest already delivered it (their `Move` told us so).
            let reaches = |r: &usize| sub.receiver_starts.get(*r).is_none_or(|s| s.0 <= last);
            let mut to = (0..self.cfg.n_receivers).filter(reaches).peekable();
            if to.peek().is_some() {
                self.cast(sc, first, &held.run, to, Some(crate::OP_RECAST), out);
            }
        }
    }

    /// Whether any subchannel still holds content the receiver quorum has
    /// not acknowledged by moving the window past it (or sends queued
    /// behind the window): what an IRMC-RC sender
    /// [`wants_tick`](SenderEndpoint::wants_tick) for, so idle
    /// simulations still quiesce.
    pub fn has_unacked(&self) -> bool {
        self.subs.values().any(|sub| sub.unacked())
    }

    /// Whether the host should keep this endpoint's [`SenderEndpoint::tick`]
    /// timer pending (one tick every [`TICK_INTERVAL`](crate::TICK_INTERVAL)):
    /// IRMC-SC keeps a standing heartbeat for its progress announcements,
    /// IRMC-RC ticks only while something is unacknowledged. Hosts ask at
    /// start and after every call on the endpoint, the tick included, and
    /// arm the tick if it is idle while this is true; none works the rule
    /// out itself.
    pub fn wants_tick(&self) -> bool {
        self.cfg.variant() == Variant::SenderCollect || self.has_unacked()
    }

    /// Number of slots the receiver side owes progress on: transmitted
    /// content the window has not moved past, plus sends queued behind a
    /// full window — the backpressure gauge fed to the health watchdog.
    pub fn unacked_slots(&self) -> u64 {
        self.subs
            .values()
            .map(|sub| {
                let start = sub.awin.start().0;
                let blocked: u64 = sub.blocked.values().map(|c| c.len() as u64).sum();
                let retained: u64 = sub
                    .runs
                    .iter()
                    .map(|(f, run)| (f + run.len()).saturating_sub(start.max(f)))
                    .sum();
                blocked + retained
            })
            .sum()
    }

    fn key_of_sender(&self, idx: usize) -> Option<spider_crypto::KeyId> {
        self.cfg.sender_keys.get(idx).copied()
    }
}

/// Drops the slots of `msgs` that fall below window start `start`;
/// returns the trimmed first position and content (`msgs` itself if
/// nothing is below).
fn trim_below<M: Content>(first: u64, msgs: Run<M>, start: u64) -> (u64, Run<M>) {
    let skip = (start.saturating_sub(first) as usize).min(msgs.len());
    (first + skip as u64, msgs.sub_run(skip..msgs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::{blobs, Blob};
    use crate::ChannelMode;
    use spider_crypto::{CostModel, Digestible as _, KeyId};
    use spider_types::{SimTime, WireSize};

    type Out = Vec<Action<Blob>>;

    fn cfg(mode: impl Into<ChannelMode>, capacity: u64, max_range: usize) -> IrmcConfig {
        IrmcConfig::new(mode, 3, 1, 3, 1, capacity)
            .with_cost(CostModel::zero())
            .with_range(max_range)
    }

    fn sender(mode: impl Into<ChannelMode>, me: usize) -> SenderEndpoint<Blob> {
        SenderEndpoint::new(cfg(mode, 16, 8), me, Keyring::new(5))
    }

    const RC: Variant = Variant::ReceiverCollect;
    const SC: Variant = Variant::SenderCollect;
    const DEDUP: ChannelMode = ChannelMode::ReliableCast { dedup: true };

    /// What `s` emits when it submits `msgs` at `first`.
    fn send(s: &mut SenderEndpoint<Blob>, first: u64, msgs: Vec<Blob>) -> Out {
        let mut out = Vec::new();
        s.send_batch(0, Position(first), msgs, &mut out);
        out
    }

    /// The frames in `out` bound for receiver `r`.
    fn to_receiver(out: &Out, r: usize) -> Vec<&ChannelMsg<Blob>> {
        out.iter()
            .filter_map(|a| match a {
                Action::ToReceiver { to, msg } if *to == r => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Hands every peer frame in `out` (emitted by sender `from`) that is
    /// addressed to `to` over to it; returns what `to` emits.
    fn relay(out: &Out, from: usize, to: &mut SenderEndpoint<Blob>) -> Out {
        let mut emitted = Vec::new();
        for a in out {
            if let Action::ToPeerSender { to: idx, msg } = a {
                if *idx == to.index() {
                    let _ = to.on_peer_message(from, msg.clone(), &mut emitted);
                }
            }
        }
        emitted
    }

    fn moves(s: &mut SenderEndpoint<Blob>, receivers: &[usize], p: u64) -> Out {
        let mut out = Vec::new();
        for &r in receivers {
            let _ = s.on_receiver_message(r, ReceiverMsg::Move { sc: 0, p: Position(p) }, &mut out);
        }
        out
    }

    fn progress(out: &Out) -> Option<Vec<(Subchannel, Position)>> {
        out.iter().find_map(|a| match a {
            Action::ToReceiver { msg: ChannelMsg::Progress { positions }, .. } => {
                Some(positions.clone())
            }
            _ => None,
        })
    }

    fn charge_sum(out: &Out) -> SimTime {
        out.iter().fold(SimTime::ZERO, |acc, a| match a {
            Action::Charge(t, _) => acc + *t,
            _ => acc,
        })
    }

    #[test]
    fn rc_send_fans_out_to_all_receivers() {
        for n in [1, 5] {
            let out = send(&mut sender(RC, 0), 1, blobs(1, n));
            for r in 0..3 {
                let frames = to_receiver(&out, r);
                let [ChannelMsg::Cast { first: Position(1), msgs, .. }] = frames[..] else {
                    panic!("one signed copy per receiver, got {frames:?}")
                };
                assert_eq!(msgs.len(), n as usize, "all slots in it");
            }
        }
    }

    #[test]
    fn send_above_window_blocks_and_flushes_on_move() {
        let mut s = SenderEndpoint::new(cfg(RC, 4, 8), 0, Keyring::new(5));
        let mut out = Vec::new();
        // Window is [1, 4]; position 6 must block.
        assert_eq!(s.send_batch(0, Position(6), blobs(6, 1), &mut out), SendStatus::Blocked);
        assert!(out.iter().all(|a| !matches!(a, Action::ToReceiver { .. })));
        // fr + 1 = 2 receivers move their windows to 3: window = [3, 6].
        let out = moves(&mut s, &[0], 3);
        assert!(
            !out.iter().any(|a| matches!(a, Action::Unblocked { .. })),
            "one receiver is not enough (fr = 1)"
        );
        let out = moves(&mut s, &[1], 3);
        assert!(out.iter().any(|a| matches!(a, Action::Unblocked { p, .. } if *p == Position(6))));
        assert!(out.iter().any(|a| matches!(a, Action::ToReceiver { .. })));
        assert_eq!(s.window(0).start(), Position(3));
    }

    #[test]
    fn send_below_window_reports_too_old() {
        let mut s = sender(RC, 0);
        moves(&mut s, &[0, 1], 5);
        assert_eq!(
            s.send_batch(0, Position(2), blobs(2, 1), &mut Vec::new()),
            SendStatus::TooOld(Position(5))
        );
    }

    #[test]
    fn stale_receiver_moves_are_ignored() {
        let mut s = sender(RC, 0);
        moves(&mut s, &[0], 5);
        moves(&mut s, &[0], 2);
        moves(&mut s, &[1], 5);
        assert_eq!(s.window(0).start(), Position(5), "regression discarded");
    }

    #[test]
    fn sc_send_exchanges_shares_then_certificate() {
        let (mut s0, mut s1) = (sender(SC, 0), sender(SC, 1));
        let out0 = send(&mut s0, 1, blobs(1, 1));
        let out1 = send(&mut s1, 1, blobs(1, 1));
        // No certificates yet (each has only its own share; fs + 1 = 2).
        assert!(to_receiver(&out0, 0).is_empty());
        // s1's share reaches s0, the default collector of receiver 0
        // (0 % 3) only: one certificate goes there, content inline.
        let out = relay(&out1, 1, &mut s0);
        let [ChannelMsg::Certificate { count: 1, shares, content: Some(_), .. }] =
            to_receiver(&out, 0)[..]
        else {
            panic!("one certificate with its content, got {out:?}")
        };
        assert_eq!(shares.len(), 2);
        assert!(to_receiver(&out, 1).is_empty() && to_receiver(&out, 2).is_empty());
    }

    #[test]
    fn sc_mismatching_share_does_not_bundle() {
        let mut s0 = sender(SC, 0);
        send(&mut s0, 1, vec![Blob::new(b"good")]);
        // A (faulty) peer shares a signature over *different* content.
        let root = Blob::new(b"evil").digest();
        let sig = Keyring::new(5).sign(KeyId(1001), &range_digest(0, Position(1), 1, &root));
        let mut out = Vec::new();
        let share = ChannelMsg::Share { sc: 0, first: Position(1), count: 1, root, sig };
        assert_eq!(s0.on_peer_message(1, share, &mut out), Ok(()));
        assert!(to_receiver(&out, 0).is_empty());
    }

    /// A faulty peer signing root after root for one run occupies one
    /// entry: the first statement per (run, sender) is the one that counts.
    #[test]
    fn sc_peer_signing_many_roots_for_one_run_holds_one_statement() {
        let mut s0 = sender(SC, 0);
        let ring = Keyring::new(5);
        for (count, k) in [(1u32, 0..1000u64), (4, 1000..2000)] {
            for i in k {
                let root = Digest::builder().u64(i).finish();
                let sig = ring.sign(KeyId(1001), &range_digest(0, Position(1), count, &root));
                let share = ChannelMsg::Share { sc: 0, first: Position(1), count, root, sig };
                assert_eq!(s0.on_peer_message(1, share, &mut Vec::new()), Ok(()));
            }
        }
        let held: usize = s0.subs[&0].shares.values().map(|stated| stated.len()).sum();
        assert_eq!(held, 2, "one statement per (sender, first, count)");
    }

    /// Nor can it park statements far beyond the window: one guard covers
    /// every statement, whatever its length.
    #[test]
    fn sc_peer_shares_far_above_the_window_are_rejected() {
        let mut s0 = sender(SC, 0);
        let ring = Keyring::new(5);
        let root = Digest::of_bytes(b"x");
        for count in [1u32, 4] {
            for p in 1..=1000u64 {
                let first = Position(p);
                let sig = ring.sign(KeyId(1001), &range_digest(0, first, count, &root));
                let share = ChannelMsg::Share { sc: 0, first, count, root, sig };
                let res = s0.on_peer_message(1, share, &mut Vec::new());
                // Window [1, 16]: a window's length beyond its end is out of reach.
                let expect =
                    if p < 32 { Ok(()) } else { Err(IrmcError::OutOfWindow { sc: 0, p: first }) };
                assert_eq!(res, expect, "count {count}, position {p}");
            }
        }
        assert_eq!(s0.subs[&0].shares.len(), 2 * 31, "bounded by the window, not by the peer");
    }

    #[test]
    fn sc_select_reassigns_collector_and_reships() {
        let (mut s0, mut s1) = (sender(SC, 0), sender(SC, 1));
        let out0 = send(&mut s0, 1, blobs(1, 1));
        send(&mut s1, 1, blobs(1, 1));
        // s1 is default collector for receiver 1 only.
        let out = relay(&out0, 0, &mut s1);
        assert!(matches!(to_receiver(&out, 1)[..], [ChannelMsg::Certificate { .. }]));
        assert!(to_receiver(&out, 0).is_empty());
        // Receiver 0 switches its collector to s1: the bundle re-ships.
        let mut out = Vec::new();
        let _ = s1.on_receiver_message(0, ReceiverMsg::Select { sc: 0, collector: 1 }, &mut out);
        assert!(matches!(
            to_receiver(&out, 0)[..],
            [ChannelMsg::Certificate { content: Some(_), .. }]
        ));
    }

    #[test]
    fn sc_tick_reports_gap_free_progress() {
        let mut senders: Vec<SenderEndpoint<Blob>> = (0..3).map(|i| sender(SC, i)).collect();
        // Certify positions 1 and 3 (gap at 2) everywhere.
        for p in [1u64, 3] {
            let outs: Vec<Out> = senders.iter_mut().map(|s| send(s, p, blobs(p, 1))).collect();
            for (from, out) in outs.iter().enumerate() {
                for to in senders.iter_mut() {
                    relay(out, from, to);
                }
            }
        }
        let mut out = Vec::new();
        senders[0].tick(&mut out);
        assert_eq!(progress(&out), Some(vec![(0, Position(1))]), "stops at the gap");
    }

    // ------------------------------------------------------------------
    // Range certification
    // ------------------------------------------------------------------

    #[test]
    fn rc_send_many_ships_one_signed_range_per_receiver() {
        let mut s = sender(RC, 0);
        let mut out = Vec::new();
        assert_eq!(s.send_batch(0, Position(1), blobs(1, 5), &mut out), SendStatus::Sent);
        let sends = out.iter().filter(|a| matches!(a, Action::ToReceiver { .. })).count();
        assert_eq!(sends, 3, "one message per receiver, whatever the run length");
        assert_eq!(s.unacked_slots(), 5);
    }

    #[test]
    fn send_many_chunks_at_max_range() {
        let mut s = SenderEndpoint::new(cfg(RC, 32, 4), 0, Keyring::new(5));
        let out = send(&mut s, 1, blobs(1, 10));
        let chunks: Vec<(u64, usize)> = to_receiver(&out, 0)
            .iter()
            .filter_map(|m| match m {
                ChannelMsg::Cast { first, msgs, .. } => Some((first.0, msgs.len())),
                _ => None,
            })
            .collect();
        assert_eq!(chunks, vec![(1, 4), (5, 4), (9, 2)], "deterministic chunking from `first`");
    }

    #[test]
    fn singleton_batch_degenerates_to_legacy_per_slot_frame() {
        // One slot and a range travel in the same frame; what is left of
        // the per-slot protocol is its price and its weight.
        let c = cfg(RC, 16, 8).with_cost(CostModel::default());
        let mut s: SenderEndpoint<Blob> = SenderEndpoint::new(c.clone(), 0, Keyring::new(5));
        let solo = Blob::new(b"solo");
        let out = send(&mut s, 1, vec![solo.clone()]);
        let charges: Vec<&Action<Blob>> =
            out.iter().filter(|a| matches!(a, Action::Charge(..))).collect();
        let price = c.cost.hmac(solo.wire_size()) + c.cost.rsa_sign();
        assert_eq!(charges, [&Action::Charge(price, "slot_sign")], "one charge, no tree");
        let frame = to_receiver(&out, 0)[0];
        assert_eq!(
            frame.wire_size(),
            48 + 16 + solo.wire_size() + 128,
            "slot header, no length prefix"
        );
        let out = send(&mut s, 2, blobs(2, 2));
        let labels: Vec<&str> = out
            .iter()
            .filter_map(|a| match a {
                Action::Charge(_, label) => Some(*label),
                _ => None,
            })
            .collect();
        assert_eq!(labels, ["range_hash", "range_sign"]);
    }

    /// The watchdog's backlog gauge counts every retained and queued slot
    /// once, whatever mix of run lengths holds them.
    #[test]
    fn unacked_slots_is_the_plain_sum_over_a_mixed_backlog() {
        for mode in [RC.into(), DEDUP] {
            let mut s = SenderEndpoint::new(cfg(mode, 8, 4), 0, Keyring::new(5));
            send(&mut s, 1, blobs(1, 1));
            send(&mut s, 2, blobs(2, 3));
            send(&mut s, 5, blobs(5, 1));
            assert_eq!(s.unacked_slots(), 5, "{mode}: one-slot and ranged runs retained");
            send(&mut s, 9, blobs(9, 2)); // above the window [1, 8]
            assert_eq!(s.unacked_slots(), 7, "{mode}: plus what queues behind the window");
            // The window moves into the middle of the range: [3, 10].
            moves(&mut s, &[0, 1], 3);
            assert_eq!(s.unacked_slots(), 2 + 1 + 2, "{mode}: slots 3..=4, 5, and 9..=10");
            assert!(s.has_unacked());
            moves(&mut s, &[0, 1], 11);
            assert_eq!((s.unacked_slots(), s.has_unacked()), (0, false));
        }
    }

    // ------------------------------------------------------------------
    // RC digest-only fan-in (dedup)
    // ------------------------------------------------------------------

    /// The rotated carrier of the range starting at 1, and one voucher.
    fn roles() -> (usize, usize) {
        let carrier = carrier_for(0, Position(1), 3);
        (carrier, (carrier + 1) % 3)
    }

    #[test]
    fn dedup_carrier_ships_content_others_vouch() {
        for me in 0..3 {
            let out = send(&mut sender(DEDUP, me), 1, blobs(1, 4));
            for r in 0..3 {
                let frames = to_receiver(&out, r);
                if me == roles().0 {
                    assert!(matches!(frames[..], [ChannelMsg::Cast { .. }]), "the carrier casts");
                } else {
                    assert!(
                        matches!(frames[..], [ChannelMsg::Vouch { .. }]),
                        "non-carriers ship one digest-only vouch per receiver, no content"
                    );
                }
            }
        }
    }

    #[test]
    fn dedup_vouch_carries_the_carrier_root() {
        let msgs = blobs(1, 4);
        let out = send(&mut sender(DEDUP, roles().1), 1, msgs.clone());
        let want = Run::new(msgs.clone()).root();
        assert!(matches!(
            to_receiver(&out, 0)[..],
            [ChannelMsg::Vouch { root, count: 4, .. }] if *root == want
        ));
    }

    #[test]
    fn dedup_voucher_serves_fetch_range() {
        let mut s = sender(DEDUP, roles().1);
        send(&mut s, 1, blobs(1, 4));
        let mut fetch = |first: u64, count: u32| {
            let mut out = Vec::new();
            let msg = ReceiverMsg::FetchRange { sc: 0, first: Position(first), count };
            (s.on_receiver_message(2, msg, &mut out), out)
        };
        let (res, out) = fetch(1, 4);
        assert_eq!(res, Ok(()));
        assert!(matches!(
            to_receiver(&out, 2)[..],
            [ChannelMsg::Content { first: Position(1), msgs, .. }] if msgs.len() == 4
        ));
        // A mismatched count is a malformed request, not a crash.
        assert!(matches!(fetch(1, 3).0, Err(IrmcError::MalformedRange { .. })));
        assert!(matches!(fetch(1, 0).0, Err(IrmcError::MalformedRange { .. })));
        // An unknown (already GC'd) range is served with silence.
        let (res, out) = fetch(9, 4);
        assert_eq!(res, Ok(()));
        assert!(to_receiver(&out, 2).is_empty());
    }

    #[test]
    fn dedup_off_and_singletons_stay_on_the_legacy_path() {
        // dedup off is what a bare `Variant` means.
        let off = ChannelMode::ReliableCast { dedup: false };
        assert_eq!(
            send(&mut sender(RC, 0), 1, blobs(1, 5)),
            send(&mut sender(off, 0), 1, blobs(1, 5))
        );
        // dedup on, one slot: every sender casts it (no carrier election).
        for me in 0..3 {
            let solo = vec![Blob::new(b"solo")];
            assert_eq!(
                send(&mut sender(DEDUP, me), 1, solo.clone()),
                send(&mut sender(RC, me), 1, solo),
                "sender {me}: one slot ignores dedup"
            );
        }
    }

    #[test]
    fn dedup_vouching_skips_the_signature_charge() {
        let c = cfg(DEDUP, 16, 8).with_cost(CostModel::default());
        let (carrier, voucher) = roles();
        let mut ends =
            [carrier, voucher].map(|me| SenderEndpoint::new(c.clone(), me, Keyring::new(5)));
        let [cc, cv] = [0, 1].map(|i| charge_sum(&send(&mut ends[i], 1, blobs(1, 8))));
        // Same hashing on both; the carrier pays the RSA signature, the
        // voucher a MAC over the 52-byte statement instead.
        assert_eq!(cc + c.cost.hmac(52), cv + c.cost.rsa_sign());
        assert!(cv * 10 < cc, "a voucher's CPU is a small fraction of the carrier's");
    }

    #[test]
    fn blocked_range_flushes_atomically_after_window_move() {
        let mut s = SenderEndpoint::new(cfg(RC, 4, 4), 0, Keyring::new(5));
        let mut out = Vec::new();
        // Window [1,4]: the chunk 5..=8 must queue as a unit.
        assert_eq!(s.send_batch(0, Position(5), blobs(5, 4), &mut out), SendStatus::Blocked);
        assert!(!out.iter().any(|a| matches!(a, Action::ToReceiver { .. })));
        let out = moves(&mut s, &[0, 1], 5);
        assert!(
            matches!(
                to_receiver(&out, 0)[..],
                [ChannelMsg::Cast { first: Position(5), msgs, .. }] if msgs.len() == 4
            ),
            "the whole chunk ships with its original boundary"
        );
    }

    #[test]
    fn a_run_that_is_one_chunk_ships_as_that_very_run() {
        /// The runs of the casts bound for receiver 0, in order.
        fn cast_runs(out: &Out) -> Vec<(u64, Run<Blob>)> {
            let casts = to_receiver(out, 0).into_iter().filter_map(|m| match m {
                ChannelMsg::Cast { first, msgs, .. } => Some((first.0, msgs.clone())),
                _ => None,
            });
            casts.collect()
        }
        let same = |a: &Run<Blob>, b: &Run<Blob>| std::ptr::eq(&a[..], &b[..]);
        // In the window, one chunk: the run handed in goes out, to every
        // endpoint it is handed to.
        let run = Run::new(blobs(1, 4));
        for me in 0..3 {
            let mut s = SenderEndpoint::new(cfg(RC, 16, 4), me, Keyring::new(5));
            let mut out = Vec::new();
            assert_eq!(s.send_batch(0, Position(1), run.clone(), &mut out), SendStatus::Sent);
            let casts = cast_runs(&out);
            assert!(matches!(&casts[..], [(1, r)] if same(r, &run)), "{casts:?}");
        }
        // Above the window it queues as that run, and flushes as it.
        let mut s = SenderEndpoint::new(cfg(RC, 4, 4), 0, Keyring::new(5));
        let run = Run::new(blobs(5, 4));
        assert_eq!(s.send_batch(0, Position(5), run.clone(), &mut Vec::new()), SendStatus::Blocked);
        let casts = cast_runs(&moves(&mut s, &[0, 1], 5));
        assert!(matches!(&casts[..], [(5, r)] if same(r, &run)), "{casts:?}");
        // Longer than the cap, or reaching below the window: new runs of
        // the same content.
        let mut s = SenderEndpoint::new(cfg(RC, 16, 4), 0, Keyring::new(5));
        moves(&mut s, &[0, 1], 3);
        let run = Run::new(blobs(1, 7));
        let mut out = Vec::new();
        assert_eq!(s.send_batch(0, Position(1), run.clone(), &mut out), SendStatus::Sent);
        let casts = cast_runs(&out);
        assert_eq!(casts.iter().map(|(f, r)| (*f, r.len())).collect::<Vec<_>>(), [(3, 2), (5, 3)]);
        assert_eq!(&casts[0].1[..], &run[2..4]);
        assert_eq!(&casts[1].1[..], &run[4..]);
        assert!(casts.iter().all(|(_, r)| !same(r, &run)));
    }

    #[test]
    fn sc_send_many_overlap_ships_content_before_shares_and_cert_after() {
        let (mut s0, mut s1) = (sender(SC, 0), sender(SC, 1));
        let out0 = send(&mut s0, 1, blobs(1, 4));
        let out1 = send(&mut s1, 1, blobs(1, 4));
        // §A.9 overlap: content to this sender's receiver ships
        // immediately, but no certificate yet (only the own share exists).
        assert!(matches!(to_receiver(&out0, 0)[..], [ChannelMsg::Content { .. }]));
        // One share over the whole range per peer.
        let shares = out0
            .iter()
            .filter(|a| {
                matches!(a, Action::ToPeerSender { msg: ChannelMsg::Share { count: 4, .. }, .. })
            })
            .count();
        assert_eq!(shares, 2);
        // s1's share completes the certificate; the content is NOT
        // re-shipped (shares-only certificate).
        let out = relay(&out1, 1, &mut s0);
        assert!(matches!(
            to_receiver(&out, 0)[..],
            [ChannelMsg::Certificate { shares, content: None, .. }] if shares.len() == 2
        ));
    }

    #[test]
    fn sc_without_overlap_ships_content_with_certificate() {
        let bundle = ChannelMode::SenderCast { overlap: false };
        let (mut s0, mut s1) = (sender(bundle, 0), sender(bundle, 1));
        let out0 = send(&mut s0, 1, blobs(1, 4));
        let out1 = send(&mut s1, 1, blobs(1, 4));
        assert!(to_receiver(&out0, 0).is_empty(), "ship-after-bundle holds content back");
        let out = relay(&out1, 1, &mut s0);
        assert!(
            matches!(
                to_receiver(&out, 0)[..],
                [ChannelMsg::Content { .. }, ChannelMsg::Certificate { content: None, .. }]
            ),
            "content ships with the cert"
        );
    }

    #[test]
    fn sc_select_reships_range_bundles() {
        let (mut s0, mut s1) = (sender(SC, 0), sender(SC, 1));
        // A one-slot and a three-slot run, both certified on s1.
        for (first, n) in [(1, 3), (4, 1)] {
            let out0 = send(&mut s0, first, blobs(first, n));
            send(&mut s1, first, blobs(first, n));
            relay(&out0, 0, &mut s1);
        }
        // Receiver 0 switches to s1: the one-slot certificate re-ships
        // first, then the range as content + shares-only certificate.
        let mut out = Vec::new();
        let _ = s1.on_receiver_message(0, ReceiverMsg::Select { sc: 0, collector: 1 }, &mut out);
        assert!(matches!(
            to_receiver(&out, 0)[..],
            [
                ChannelMsg::Certificate { first: Position(4), content: Some(_), .. },
                ChannelMsg::Content { first: Position(1), .. },
                ChannelMsg::Certificate { first: Position(1), content: None, .. },
            ]
        ));
    }

    #[test]
    fn sc_diverged_range_boundaries_heal_via_per_slot_fallback() {
        let (mut s0, mut s1) = (sender(SC, 0), sender(SC, 1));
        // Same content, different boundaries: s0 sends 1..=4 as one range,
        // s1 as 1..=2 and 3..=4. Range shares never match.
        let out0 = send(&mut s0, 1, blobs(1, 4));
        let mut out1 = send(&mut s1, 1, blobs(1, 2));
        out1.extend(send(&mut s1, 3, blobs(3, 2)));
        let out = relay(&out1, 1, &mut s0);
        assert!(
            to_receiver(&out0, 0)
                .iter()
                .chain(&to_receiver(&out, 0))
                .all(|m| !matches!(m, ChannelMsg::Certificate { .. })),
            "mismatched boundaries cannot certify as ranges"
        );
        // Two stalled ticks trigger the per-slot fallback on both sides;
        // s0 ends up with one-slot certificates for all four slots.
        let mut announced = None;
        for _ in 0..4 {
            let (mut fb0, mut fb1) = (Vec::new(), Vec::new());
            s0.tick(&mut fb0);
            s1.tick(&mut fb1);
            relay(&fb1, 1, &mut s0);
            relay(&fb0, 0, &mut s1);
            announced = progress(&fb0).or(announced);
        }
        assert_eq!(announced, Some(vec![(0, Position(4))]), "fallback certified the whole run");
    }
}
