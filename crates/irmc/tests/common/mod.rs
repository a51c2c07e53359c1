//! The one in-memory network the IRMC integration tests share: a
//! 4-sender / 3-receiver channel, a message pump (in order or randomly
//! reordered), link faults, and an optional action transcript.

#![allow(dead_code)] // each test binary uses its own subset

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spider_crypto::{Digest, Digestible, Keyring};
use spider_irmc::{
    Action, ChannelMode, ChannelMsg, IrmcConfig, ReceiverEndpoint, ReceiverMsg, Run, SenderEndpoint,
};
use spider_types::{Position, WireSize};
use std::collections::VecDeque;
use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Blob(pub Vec<u8>);

impl Blob {
    pub fn of(tag: u64) -> Self {
        Blob(tag.to_be_bytes().to_vec())
    }
}

impl WireSize for Blob {
    fn wire_size(&self) -> usize {
        64 + self.0.len()
    }
}

impl Digestible for Blob {
    fn digest(&self) -> Digest {
        Digest::of_bytes(&self.0)
    }
}

/// The slots `first..first + n`, each tagged with its position.
pub fn blobs(first: u64, n: u64) -> Vec<Blob> {
    (first..first + n).map(Blob::of).collect()
}

/// Every slot of `1..=n` delivered: what [`Net::delivered`] returns once
/// nothing is missing.
pub fn complete(n: u64) -> Vec<Option<Blob>> {
    blobs(1, n).into_iter().map(Some).collect()
}

/// FNV-1a, for the golden transcripts.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The 4-sender (`fs = 1`) / 3-receiver (`fr = 1`) channel every
/// integration test runs, free of CPU charges.
pub fn cfg(mode: impl Into<ChannelMode>, capacity: u64, max_range: usize) -> IrmcConfig {
    IrmcConfig::new(mode, 4, 1, 3, 1, capacity)
        .with_cost(spider_crypto::CostModel::zero())
        .with_range(max_range)
}

/// What the network does to frames in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    None,
    /// Certificates on this sender → receiver link vanish (a faulty
    /// collector).
    DropCerts(usize, usize),
    /// This sender's signed content frames are lost (crashed carrier).
    DropContent(usize),
    /// This sender tampers its signed content after signing (Byzantine
    /// carrier): the signature no longer covers the payload.
    TamperContent(usize),
    /// Every frame between the two groups is lost, both directions.
    Blackout,
    /// Every frame from this sender to the receivers is lost.
    FromSender(usize),
}

impl Fault {
    /// The frame as the receiver will see it, or `None` if it is lost.
    fn apply(self, from: usize, to: usize, msg: ChannelMsg<Blob>) -> Option<ChannelMsg<Blob>> {
        let signed_content = matches!(msg, ChannelMsg::Cast { .. });
        let cert = matches!(msg, ChannelMsg::Certificate { .. });
        match (self, msg) {
            (Fault::Blackout, _) => None,
            (Fault::FromSender(f), _) if f == from => None,
            (Fault::DropCerts(f, t), _) if (f, t) == (from, to) && cert => None,
            (Fault::DropContent(f), _) if f == from && signed_content => None,
            (Fault::TamperContent(f), ChannelMsg::Cast { sc, first, msgs, sig }) if f == from => {
                let mut bad = msgs.to_vec();
                bad[0] = Blob::of(u64::MAX);
                Some(ChannelMsg::Cast { sc, first, msgs: Run::new(bad), sig })
            }
            (_, msg) => Some(msg),
        }
    }
}

pub enum Wire {
    ToReceiver { from: usize, to: usize, msg: ChannelMsg<Blob> },
    ToSender { from: usize, to: usize, msg: ReceiverMsg },
    Peer { from: usize, to: usize, msg: ChannelMsg<Blob> },
}

/// A channel plus its message pump.
pub struct Net {
    pub senders: Vec<SenderEndpoint<Blob>>,
    pub receivers: Vec<ReceiverEndpoint<Blob>>,
    pub wire: VecDeque<Wire>,
    rng: SmallRng,
    shuffle: bool,
    pub fault: Fault,
    /// Ready announcements per receiver, in arrival order.
    pub ready: Vec<Vec<(u64, Position)>>,
    /// Armed supervision timers: (receiver, token).
    pub timers: Vec<(usize, u64)>,
    /// Every action of every endpoint call, in order, one line each —
    /// recorded only when switched on by [`Net::record`].
    pub transcript: Option<String>,
}

impl Net {
    pub fn new(cfg: IrmcConfig, seed: u64, shuffle: bool) -> Self {
        let ring = Keyring::new(7);
        Net {
            senders: (0..cfg.n_senders)
                .map(|i| SenderEndpoint::new(cfg.clone(), i, ring.clone()))
                .collect(),
            receivers: (0..cfg.n_receivers)
                .map(|i| ReceiverEndpoint::new(cfg.clone(), i, ring.clone()))
                .collect(),
            wire: VecDeque::new(),
            rng: SmallRng::seed_from_u64(seed),
            shuffle,
            fault: Fault::None,
            ready: vec![Vec::new(); cfg.n_receivers],
            timers: Vec::new(),
            transcript: None,
        }
    }

    /// Starts recording the action transcript.
    pub fn record(mut self) -> Self {
        self.transcript = Some(String::new());
        self
    }

    /// Adds a line to the transcript (a script's own milestones).
    pub fn note(&mut self, line: std::fmt::Arguments<'_>) {
        if let Some(t) = &mut self.transcript {
            let _ = writeln!(t, "{line}");
        }
    }

    pub fn absorb_sender(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToReceiver { to, msg } => {
                    self.note(format_args!(
                        "s{from} > r{to} {} {}",
                        msg.trace_kind(),
                        msg.wire_size()
                    ));
                    if let Some(msg) = self.fault.apply(from, to, msg) {
                        self.wire.push_back(Wire::ToReceiver { from, to, msg });
                    }
                }
                Action::ToPeerSender { to, msg } => {
                    self.note(format_args!(
                        "s{from} > s{to} {} {}",
                        msg.trace_kind(),
                        msg.wire_size()
                    ));
                    self.wire.push_back(Wire::Peer { from, to, msg });
                }
                other => self.note_local('s', from, &other),
            }
        }
    }

    pub fn absorb_receiver(&mut self, from: usize, actions: Vec<Action<Blob>>) {
        for a in actions {
            match a {
                Action::ToSender { to, msg } => {
                    self.note(format_args!(
                        "r{from} > s{to} {} {}",
                        msg.trace_kind(),
                        msg.wire_size()
                    ));
                    if self.fault != Fault::Blackout {
                        self.wire.push_back(Wire::ToSender { from, to, msg });
                    }
                }
                other => {
                    self.note_local('r', from, &other);
                    match other {
                        Action::Ready { sc, p } => self.ready[from].push((sc, p)),
                        Action::SetTimer { token, .. } => self.timers.push((from, token)),
                        _ => {}
                    }
                }
            }
        }
    }

    /// Transcript line of an action that stays on its endpoint.
    fn note_local(&mut self, side: char, at: usize, a: &Action<Blob>) {
        match a {
            Action::Charge(t, label) => {
                self.note(format_args!("{side}{at} $ {} {label}", t.as_nanos()))
            }
            Action::Ready { sc, p } => self.note(format_args!("{side}{at} ready {sc} {}", p.0)),
            Action::WindowMoved { sc, start } => {
                self.note(format_args!("{side}{at} window {sc} {}", start.0))
            }
            Action::Unblocked { sc, p } => {
                self.note(format_args!("{side}{at} unblocked {sc} {}", p.0))
            }
            Action::SetTimer { token, delay } => {
                self.note(format_args!("{side}{at} timer {token} {}", delay.as_nanos()))
            }
            Action::ToReceiver { .. } | Action::ToSender { .. } | Action::ToPeerSender { .. } => {}
        }
    }

    /// Sender `i` alone submits `msgs` at `first`.
    pub fn send_from(&mut self, i: usize, sc: u64, first: Position, msgs: &[Blob]) {
        let mut out = Vec::new();
        let status = self.senders[i].send_batch(sc, first, msgs.to_vec(), &mut out);
        self.note(format_args!("s{i} send {sc} {} {} {status:?}", first.0, msgs.len()));
        self.absorb_sender(i, out);
    }

    /// Every sender submits the same contiguous run.
    pub fn send_all(&mut self, sc: u64, first: Position, msgs: &[Blob]) {
        for i in 0..self.senders.len() {
            self.send_from(i, sc, first, msgs);
        }
    }

    /// Receiver `r` moves its window.
    pub fn move_receiver(&mut self, r: usize, sc: u64, p: Position) {
        let mut out = Vec::new();
        self.receivers[r].move_window(sc, p, &mut out);
        self.absorb_receiver(r, out);
    }

    /// Delivers queued traffic until the wire is empty.
    pub fn pump(&mut self) {
        let mut n = 0u32;
        while !self.wire.is_empty() {
            let idx = if self.shuffle { self.rng.gen_range(0..self.wire.len()) } else { 0 };
            let item = self.wire.remove(idx).expect("index in range");
            n += 1;
            let mut out = Vec::new();
            match item {
                Wire::ToReceiver { from, to, msg } => {
                    let res = self.receivers[to].on_sender_message(from, msg, &mut out);
                    if let Err(e) = res {
                        self.note(format_args!("r{to} rejects s{from}: {e:?}"));
                    }
                    self.absorb_receiver(to, out);
                }
                Wire::ToSender { from, to, msg } => {
                    let res = self.senders[to].on_receiver_message(from, msg, &mut out);
                    if let Err(e) = res {
                        self.note(format_args!("s{to} rejects r{from}: {e:?}"));
                    }
                    self.absorb_sender(to, out);
                }
                Wire::Peer { from, to, msg } => {
                    let res = self.senders[to].on_peer_message(from, msg, &mut out);
                    if let Err(e) = res {
                        self.note(format_args!("s{to} rejects s{from}: {e:?}"));
                    }
                    self.absorb_sender(to, out);
                }
            }
            assert!(n < 1_000_000, "message storm");
        }
    }

    /// Fires every armed supervision timer once, then pumps the traffic
    /// it generated.
    pub fn fire_timers(&mut self) {
        for (r, token) in std::mem::take(&mut self.timers) {
            let mut out = Vec::new();
            let res = self.receivers[r].on_timer(token, &mut out);
            self.note(format_args!("r{r} timer {token} fired: {res:?}"));
            self.absorb_receiver(r, out);
        }
        self.pump();
    }

    /// Up to three supervision rounds — enough for any single-fault
    /// refetch.
    pub fn settle(&mut self) {
        for _ in 0..3 {
            if !self.timers.is_empty() {
                self.fire_timers();
            }
        }
    }

    /// Runs `rounds` of the actors' periodic sender tick, pumping after
    /// each round.
    pub fn tick_senders(&mut self, rounds: usize) {
        for _ in 0..rounds {
            for i in 0..self.senders.len() {
                let mut out = Vec::new();
                self.senders[i].tick(&mut out);
                self.absorb_sender(i, out);
            }
            self.pump();
        }
    }

    /// The delivered slot sequence of one receiver over `1..=n`.
    pub fn delivered(&mut self, r: usize, sc: u64, n: u64) -> Vec<Option<Blob>> {
        (1..=n).map(|p| self.receivers[r].try_receive(sc, Position(p)).into_payload()).collect()
    }
}
