//! Channel-internal wire messages (Figs 18–20): one frame family in
//! which a slot is a range of one.
//!
//! Every frame names a contiguous slot run `[first, first + count)` of a
//! subchannel. What is signed (or vouched for) is one statement,
//! [`range_digest`]`(sc, first, count, root)`, where `root` is the Merkle
//! root ([`spider_crypto::merkle_root`]) over the per-slot content
//! digests — so one RSA signature certifies the whole run — and, for a
//! run of one, the content digest itself.
//!
//! * [`ChannelMsg::Cast`] — IRMC-RC: a sender's signed copy of a run.
//! * [`ChannelMsg::Share`] — IRMC-SC: a signature share over a run's
//!   statement, exchanged inside the sender group (content stays out of
//!   the LAN exchange).
//! * [`ChannelMsg::Vouch`] — IRMC-RC dedup: a digest-only,
//!   MAC-authenticated confirmation of a run; the rotated primary carrier
//!   ships the one `Cast` while everyone else vouches, so redundancy costs
//!   a digest instead of a payload.
//! * [`ChannelMsg::Content`] — raw content without proof. IRMC-SC: the
//!   collector ships it **before** shares arrive (§A.9 overlap); receivers
//!   buffer it and deliver nothing until a certificate covers it. IRMC-RC
//!   dedup: the answer to a receiver's [`ReceiverMsg::FetchRange`].
//! * [`ChannelMsg::Certificate`] — IRMC-SC: `fs + 1` shares over a run's
//!   statement. A range certificate is shares-only (its content travelled
//!   as `Content`); a one-slot certificate carries its content inline.
//!
//! A run of one is the paper's per-slot frame, and
//! [`WireSize::wire_size`] is the only code that knows what that weighs:
//! a 16-byte slot header instead of the 20-byte range header (no count),
//! no 4-byte per-slot length prefix, and a certificate whose root is
//! elided because the content it covers is in the same message.
//!
//! The content of a run travels as a [`Run`]: one shared, immutable value
//! that remembers its per-slot digests and its root once they have been
//! computed. Fan-out to several receivers, retention and re-shipping
//! clone a pointer, not the content, and every in-process holder of the
//! same run — a sender and each endpoint it was cast to — hashes it at
//! most once between them. A run of one keeps its slot inline, so the
//! per-slot frame's content is one allocation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::{Content, Subchannel};
use spider_crypto::sha256::Domain;
use spider_crypto::{merkle_root, CostModel, Digest, Signature};
use spider_types::wire::{DIGEST_BYTES, HEADER_BYTES, MAC_BYTES, SIG_BYTES};
use spider_types::{Position, SimTime, WireSize};
use std::sync::{Arc, OnceLock};

/// The content of a contiguous slot run, in position order: an immutable
/// value behind one reference count that remembers what hashing it gave.
///
/// This is [`spider_crypto::Hashed`]'s rule applied to a run. The root a
/// statement over the run binds (the Merkle root, or the content digest
/// of a run of one) and, where an endpoint works slot by slot, the
/// per-slot content digests are computed from the content on first use
/// and kept; a clone is the same value with the same memo. An endpoint
/// handed a run still derives the root it checks a signature, vouch or
/// certificate against from that content — what it skips is repeating,
/// on the identical object, a computation whose result cannot differ.
///
/// The memo can never vouch for other content: the slots are reachable
/// only through `Deref` to `[M]` (no `DerefMut`, no public field), the
/// constructors take content and start from an empty memo, so a changed
/// run is a new object that is hashed again. A host that sends the same
/// content down several channels builds one run and hands each of them a
/// clone, and its content is hashed once for all of them. Equality and
/// `Debug` look at the content alone.
///
/// The per-slot digests are memoized by the run, not by each slot: a slot
/// type needs no digest cache of its own (the commit channel's `Execute`
/// has none), since every endpoint that credits slots one by one reads
/// them from the run's leaves. A run of one ([`Run::one`], or a one-item
/// [`FromIterator::from_iter`]) holds its slot inline, inside the run's
/// one allocation, with no separate list.
pub struct Run<M>(Arc<RunInner<M>>);

struct RunInner<M> {
    msgs: Slots<M>,
    /// Payload bytes: the sum of the slots' wire sizes.
    bytes: usize,
    leaves: OnceLock<Leaves>,
    root: OnceLock<Digest>,
}

/// A run's slots: a run of one holds its slot inline, in the run's own
/// allocation, so the per-slot frame of a lightly loaded channel costs
/// one allocation, not two.
enum Slots<M> {
    One([M; 1]),
    Many(Vec<M>),
}

impl<M> std::ops::Deref for Slots<M> {
    type Target = [M];
    fn deref(&self) -> &[M] {
        match self {
            Slots::One(slot) => slot,
            Slots::Many(slots) => slots,
        }
    }
}

impl<M: Content> Run<M> {
    /// Wraps the content of a run; nothing is hashed until a digest is
    /// asked for.
    pub fn new(msgs: Vec<M>) -> Self {
        Run::of(Slots::Many(msgs))
    }

    /// A run of the one slot `m`, held inline.
    pub fn one(m: M) -> Self {
        Run::of(Slots::One([m]))
    }

    fn of(msgs: Slots<M>) -> Self {
        let bytes = msgs.iter().map(|m| m.wire_size()).sum();
        Run(Arc::new(RunInner { msgs, bytes, leaves: OnceLock::new(), root: OnceLock::new() }))
    }

    /// The per-slot content digests, in position order, kept with the run
    /// from the first call on: 32 bytes a slot for as long as the run
    /// lives, so only who credits slots one by one (or ships the run to
    /// endpoints that will) asks for them — and asks before [`Self::root`],
    /// which then comes from the same pass over the content.
    pub(crate) fn leaves(&self) -> &[Digest] {
        self.0.leaves.get_or_init(|| Leaves::of(self))
    }

    /// The root a statement over the run binds: the Merkle root of the
    /// leaves, or the one leaf itself. Kept from the first call on; the
    /// leaves it is computed from are the kept ones if there are any and
    /// dropped again otherwise.
    pub(crate) fn root(&self) -> Digest {
        *self.0.root.get_or_init(|| match self.0.leaves.get() {
            Some(leaves) => leaves.root(),
            None => Leaves::of(self).root(),
        })
    }

    /// Payload bytes (what a transport MAC over the content covers).
    pub(crate) fn bytes(&self) -> usize {
        self.0.bytes
    }

    /// The slots in `range` as a run: this very run (memo included) if
    /// the range covers it, otherwise a copy of those slots, hashed anew.
    pub(crate) fn sub_run(&self, range: std::ops::Range<usize>) -> Self {
        if range == (0..self.len()) {
            return self.clone();
        }
        self.0.msgs.get(range).unwrap_or_default().iter().cloned().collect()
    }
}

impl<M: Content> From<Vec<M>> for Run<M> {
    fn from(msgs: Vec<M>) -> Self {
        Run::new(msgs)
    }
}

/// Collects slots into a run: one slot is held inline, more are one
/// exact-size list when the iterator knows its length.
impl<M: Content> FromIterator<M> for Run<M> {
    fn from_iter<I: IntoIterator<Item = M>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return Run::new(Vec::new());
        };
        let Some(second) = iter.next() else {
            return Run::one(first);
        };
        let mut msgs = Vec::with_capacity(2 + iter.size_hint().0);
        msgs.extend([first, second]);
        msgs.extend(iter);
        Run::new(msgs)
    }
}

impl<M> Clone for Run<M> {
    fn clone(&self) -> Self {
        Run(Arc::clone(&self.0))
    }
}

impl<M> std::ops::Deref for Run<M> {
    type Target = [M];
    fn deref(&self) -> &[M] {
        &self.0.msgs
    }
}

impl<M: PartialEq> PartialEq for Run<M> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<M: std::fmt::Debug> std::fmt::Debug for Run<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Messages originating at sender endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelMsg<M> {
    /// IRMC-RC: a sender's signed copy of the contiguous slot run
    /// `[first, first + msgs.len())`.
    Cast {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the run.
        first: Position,
        /// Content of each slot, in position order.
        msgs: Run<M>,
        /// Signature over `range_digest(sc, first, len, root)`.
        sig: Signature,
    },
    /// IRMC-SC: signature share over a run's statement, exchanged within
    /// the sender group.
    Share {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the run.
        first: Position,
        /// Number of slots covered.
        count: u32,
        /// Root over the per-slot content digests.
        root: Digest,
        /// Signature over `range_digest(sc, first, count, root)`.
        sig: Signature,
    },
    /// Digest-only confirmation of a run (IRMC-RC dedup): the statement
    /// that this sender submitted content hashing to `root`, without
    /// shipping it. The deterministically-rotated carrier ships the one
    /// [`Self::Cast`]; every other sender ships this instead, so content
    /// crosses the wire and gets hashed at most once per range on the
    /// happy path. Authenticated by the transport MAC: a vouch is
    /// consumed only by the receiving endpoint and never forwarded as
    /// proof to a third party, so no signature is needed (IRMC-RC's
    /// trust model, Fig 18).
    Vouch {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the run.
        first: Position,
        /// Number of slots covered.
        count: u32,
        /// Root over the per-slot content digests.
        root: Digest,
    },
    /// Raw content of a run. IRMC-SC: shipped by the collector ahead of
    /// certification (§A.9 overlap). IRMC-RC dedup: a voucher's answer to
    /// [`ReceiverMsg::FetchRange`] when the primary carrier stalls.
    /// Authenticated by the transport MAC only; never deliverable without
    /// a matching [`Self::Certificate`] (SC) or vouch quorum whose root
    /// the content hashes to (RC dedup).
    Content {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the run.
        first: Position,
        /// Content of each slot, in position order.
        msgs: Run<M>,
    },
    /// IRMC-SC: a collector's certificate for a run — `fs + 1` shares
    /// from distinct senders over `range_digest(sc, first, count, root)`.
    Certificate {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the run.
        first: Position,
        /// Number of slots covered.
        count: u32,
        /// Root over the per-slot content digests.
        root: Digest,
        /// The shares.
        shares: Vec<Signature>,
        /// The certified content, when it travels in the same message (a
        /// one-slot certificate); `None` pairs the certificate with the
        /// content of an earlier [`Self::Content`].
        content: Option<Run<M>>,
    },
    /// IRMC-SC: periodic progress announcement — per subchannel, the
    /// highest position for which the sender holds gap-free certificates.
    Progress {
        /// (subchannel, highest certified position) pairs.
        positions: Vec<(Subchannel, Position)>,
    },
    /// A sender-side request to move a subchannel window forward.
    Move {
        /// Subchannel.
        sc: Subchannel,
        /// Requested new window start.
        p: Position,
    },
}

impl<M: Content> WireSize for ChannelMsg<M> {
    fn wire_size(&self) -> usize {
        // The one place a one-slot frame's bytes are told apart (see the
        // module docs): slot header 16, range header 20.
        match self {
            ChannelMsg::Cast { msgs, .. } if msgs.len() == 1 => {
                HEADER_BYTES + 16 + msgs.bytes() + SIG_BYTES
            }
            ChannelMsg::Cast { msgs, .. } => HEADER_BYTES + 20 + payload_size(msgs) + SIG_BYTES,
            ChannelMsg::Share { count: 1, .. } => HEADER_BYTES + 16 + DIGEST_BYTES + SIG_BYTES,
            ChannelMsg::Share { .. } => HEADER_BYTES + 20 + DIGEST_BYTES + SIG_BYTES,
            ChannelMsg::Vouch { .. } => HEADER_BYTES + 20 + DIGEST_BYTES + MAC_BYTES,
            ChannelMsg::Content { msgs, .. } => HEADER_BYTES + 20 + payload_size(msgs) + MAC_BYTES,
            ChannelMsg::Certificate { shares, content, .. } => {
                let certified = match content {
                    Some(msgs) if msgs.len() == 1 => 16 + msgs.bytes(),
                    Some(msgs) => 20 + DIGEST_BYTES + payload_size(msgs),
                    None => 20 + DIGEST_BYTES,
                };
                HEADER_BYTES + certified + shares.len() * SIG_BYTES + MAC_BYTES
            }
            ChannelMsg::Progress { positions } => HEADER_BYTES + positions.len() * 16 + MAC_BYTES,
            ChannelMsg::Move { .. } => HEADER_BYTES + 16 + MAC_BYTES,
        }
    }

    fn trace_kind(&self) -> &'static str {
        match self {
            ChannelMsg::Cast { .. } => "cast",
            ChannelMsg::Share { .. } => "share",
            ChannelMsg::Certificate { .. } => "cert",
            ChannelMsg::Vouch { .. } => "vouch",
            ChannelMsg::Content { .. } => "content",
            ChannelMsg::Progress { .. } | ChannelMsg::Move { .. } => "ctrl",
        }
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        // Content-bearing frames carry their payloads' requests; the
        // digest-only ones (shares, vouches, shares-only certificates,
        // progress, moves) carry none and thus record no causal edges.
        match self {
            ChannelMsg::Cast { msgs, .. }
            | ChannelMsg::Content { msgs, .. }
            | ChannelMsg::Certificate { content: Some(msgs), .. } => {
                for m in msgs.iter() {
                    m.trace_reqs(visit);
                }
            }
            ChannelMsg::Share { .. }
            | ChannelMsg::Vouch { .. }
            | ChannelMsg::Certificate { content: None, .. }
            | ChannelMsg::Progress { .. }
            | ChannelMsg::Move { .. } => {}
        }
    }
}

/// Total payload bytes of a range (per-slot content plus a small length
/// frame per slot).
fn payload_size<M: Content>(msgs: &Run<M>) -> usize {
    4 * msgs.len() + msgs.bytes()
}

/// Messages originating at receiver endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum ReceiverMsg {
    /// Request to move a subchannel window forward.
    Move {
        /// Subchannel.
        sc: Subchannel,
        /// Requested new window start.
        p: Position,
    },
    /// IRMC-SC: announce the sender this receiver uses as collector for a
    /// subchannel.
    Select {
        /// Subchannel.
        sc: Subchannel,
        /// Chosen collector (sender index).
        collector: usize,
    },
    /// IRMC-RC dedup: ask a voucher to ship the content of a range whose
    /// vouch quorum formed but whose primary carrier has not delivered.
    /// The voucher answers with [`ChannelMsg::Content`].
    FetchRange {
        /// Subchannel.
        sc: Subchannel,
        /// First position of the stalled range.
        first: Position,
        /// Number of slots covered.
        count: u32,
    },
}

impl WireSize for ReceiverMsg {
    fn wire_size(&self) -> usize {
        match self {
            ReceiverMsg::Move { .. } => HEADER_BYTES + 16 + MAC_BYTES,
            ReceiverMsg::Select { .. } => HEADER_BYTES + 12 + MAC_BYTES,
            ReceiverMsg::FetchRange { .. } => HEADER_BYTES + 20 + MAC_BYTES,
        }
    }

    fn trace_kind(&self) -> &'static str {
        "ack"
    }
}

/// Deterministically rotates the primary content carrier of a dedup
/// range across the sender group: a bit-mixed hash (splitmix64
/// finalizer) of `(sc, first)` modulo `n_senders`.
///
/// Deliberately *not* `first % n_senders`: range firsts advance in
/// strides of the range length, so a plain modulus would park the
/// carrier role on a single sender forever whenever the stride and the
/// group size share a factor (e.g. stride 32, 4 senders) — the rotation
/// exists precisely to spread the signing + shipping cost evenly.
pub(crate) fn carrier_for(sc: Subchannel, first: Position, n_senders: usize) -> usize {
    let mut x = sc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ first.0;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % n_senders.max(1) as u64) as usize
}

/// The tag of the range-statement domain.
const RANGE_TAG: &str = "spider irmc range statement";

/// The chaining value every range statement starts from.
const RANGE: Domain = Domain::new(RANGE_TAG);

/// The statement senders sign (and vouch for): the subchannel, start
/// position and length are bound together with the root, so a signature
/// cannot be replayed for a shifted or truncated run, and a root can
/// never stand for a tree of another shape — a one-slot root (a content
/// digest) for a Merkle root, or a level of parents for the leaves below
/// it.
///
/// It is the SHA-256 of the tag block, then `sc`, `first` (8 bytes each),
/// `count` (4, all big-endian) and `root`: 116 bytes, of which the tag
/// block's chaining value is a constant, so one compression.
pub fn range_digest(sc: Subchannel, first: Position, count: u32, root: &Digest) -> Digest {
    let mut fields = [0u8; 52];
    fields[..8].copy_from_slice(&sc.to_be_bytes());
    fields[8..16].copy_from_slice(&first.0.to_be_bytes());
    fields[16..20].copy_from_slice(&count.to_be_bytes());
    fields[20..].copy_from_slice(&root.0);
    Digest(RANGE.digest(&fields))
}

/// The per-slot content digests of a run, held inline for a run of one
/// so that a one-slot frame allocates nothing for a tree it does not
/// build.
enum Leaves {
    One([Digest; 1]),
    Many(Vec<Digest>),
}

impl Leaves {
    fn of<M: Content>(msgs: &[M]) -> Self {
        match msgs {
            [m] => Leaves::One([m.digest()]),
            _ => Leaves::Many(msgs.iter().map(|m| m.digest()).collect()),
        }
    }

    fn root(&self) -> Digest {
        #[cfg(test)]
        tests::TREES_BUILT.with(|n| n.set(n.get() + 1));
        merkle_root(self)
    }
}

impl std::ops::Deref for Leaves {
    type Target = [Digest];
    fn deref(&self) -> &[Digest] {
        match self {
            Leaves::One(leaf) => leaf,
            Leaves::Many(leaves) => leaves,
        }
    }
}

/// What hashing a run costs, and the one distinction range
/// certification leaves in the protocol — both endpoints price and route
/// by this and nothing else looks at a run's length.
///
/// A run of one is the paper's per-slot frame (Figs 18–20): hashing and
/// the RSA operation are **one** charge (`slot_sign` / `slot_verify`) of
/// `hmac(size)` + RSA with no tree, every sender casts it and the
/// receiver credits it per slot (no carrier election, no vouch, no
/// [`spider_crypto::RootCache`]), and its IRMC-SC certificate carries the
/// content inline (one `bundle_mac` / `cert_verify` of `hmac(size)`). A
/// range is hashed up front (`range_hash`: payload MAC + Merkle tree) and
/// signed separately (`range_sign`), which is what lets its content ship
/// early (§A.9) or a vouch stand in for the signature (dedup) in between.
pub(crate) struct RunCost {
    /// Payload bytes (what a transport MAC over the content covers).
    pub(crate) bytes: usize,
    /// Payload MAC, plus the Merkle tree of a range.
    pub(crate) hash: SimTime,
    /// More than one slot.
    pub(crate) ranged: bool,
}

impl RunCost {
    pub(crate) fn of<M: Content>(cost: &CostModel, msgs: &Run<M>) -> Self {
        let bytes = msgs.bytes();
        let ranged = msgs.len() > 1;
        let tree = if ranged { cost.merkle(msgs.len()) } else { SimTime::ZERO };
        RunCost { bytes, hash: cost.hmac(bytes) + tree, ranged }
    }

    /// The charge that completes a sender's certification, given the
    /// price of one RSA signature: the signature alone for a range (whose
    /// hashing was charged up front), hashing included for one slot.
    pub(crate) fn sign(&self, rsa: SimTime) -> (SimTime, &'static str) {
        if self.ranged {
            (rsa, "range_sign")
        } else {
            (self.hash + rsa, "slot_sign")
        }
    }

    /// The one charge of a receiver that verifies a signed copy in full,
    /// given the price of one RSA verification.
    pub(crate) fn verify(&self, rsa: SimTime) -> (SimTime, &'static str) {
        (self.hash + rsa, if self.ranged { "range_verify" } else { "slot_verify" })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spider_crypto::sha256::Sha256;
    use spider_crypto::Digestible;

    thread_local! {
        /// Roots computed from runs' leaves on this thread (each test runs
        /// on its own), for the tests that pin "hashed once" by count.
        pub(crate) static TREES_BUILT: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Blob(Vec<u8>);
    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            self.0.len()
        }
    }
    impl Digestible for Blob {
        fn digest(&self) -> Digest {
            Digest::of_bytes(&self.0)
        }
    }

    fn sig() -> Signature {
        spider_crypto::Keyring::new(1).sign(spider_crypto::KeyId(0), &Digest::of_bytes(b"x"))
    }

    fn payload(n: usize, size: usize) -> Run<Blob> {
        Run::new((0..n).map(|_| Blob(vec![0; size])).collect())
    }

    fn cast(n: usize, size: usize) -> ChannelMsg<Blob> {
        ChannelMsg::Cast { sc: 0, first: Position(1), msgs: payload(n, size), sig: sig() }
    }

    fn cert(count: u32, shares: usize, content: Option<Run<Blob>>) -> ChannelMsg<Blob> {
        let (root, shares) = (Digest::of_bytes(b"x"), vec![sig(); shares]);
        ChannelMsg::Certificate { sc: 0, first: Position(1), count, root, shares, content }
    }

    /// Byte counts of every frame at 1, 2 and 32 slots of 100 bytes, as
    /// the slot frames (`Send` / `SigShare` / `Certificate`) and range
    /// frames weighed before they became one family.
    #[test]
    fn wire_sizes_are_the_slot_and_range_frames_byte_for_byte() {
        let root = Digest::of_bytes(b"x");
        let first = Position(1);
        for (n, cast_b, share_b, content_b, cert_b) in
            [(1, 292, 224, 204, 452), (2, 404, 228, 308, 388), (32, 3524, 228, 3428, 388)]
        {
            let count = n as u32;
            assert_eq!(cast(n, 100).wire_size(), cast_b, "cast x{n}");
            let share: ChannelMsg<Blob> =
                ChannelMsg::Share { sc: 0, first, count, root, sig: sig() };
            assert_eq!(share.wire_size(), share_b, "share x{n}");
            let vouch: ChannelMsg<Blob> = ChannelMsg::Vouch { sc: 0, first, count, root };
            assert_eq!(vouch.wire_size(), 132, "vouch x{n}");
            let content: ChannelMsg<Blob> =
                ChannelMsg::Content { sc: 0, first, msgs: payload(n, 100) };
            assert_eq!(content.wire_size(), content_b, "content x{n}");
            // One slot: content inline, root elided. A range: shares only.
            let inline = (n == 1).then(|| payload(1, 100));
            assert_eq!(cert(count, 2, inline).wire_size(), cert_b, "certificate x{n}");
        }
        let progress: ChannelMsg<Blob> = ChannelMsg::Progress { positions: vec![(0, first)] };
        assert_eq!(progress.wire_size(), 96);
        assert_eq!(ChannelMsg::<Blob>::Move { sc: 0, p: first }.wire_size(), 96);
        assert_eq!(ReceiverMsg::Move { sc: 0, p: first }.wire_size(), 96);
        assert_eq!(ReceiverMsg::Select { sc: 0, collector: 1 }.wire_size(), 92);
        assert_eq!(ReceiverMsg::FetchRange { sc: 0, first, count: 2 }.wire_size(), 100);
    }

    #[test]
    fn certificate_carries_share_bytes() {
        for content in [Some(payload(1, 100)), None] {
            let (one, two) = (cert(1, 1, content.clone()), cert(1, 2, content));
            assert_eq!(two.wire_size() - one.wire_size(), SIG_BYTES);
        }
    }

    #[test]
    fn carrier_rotation_covers_all_senders_under_fixed_stride() {
        // Range firsts advance in a fixed stride (1, 33, 65, ...); a plain
        // `first % n` would park the carrier on one sender forever. The
        // mixed rotation must keep every sender carrying a fair share.
        let mut seen = [0usize; 4];
        for i in 0..64u64 {
            seen[carrier_for(0, Position(1 + 32 * i), 4)] += 1;
        }
        for (s, &n) in seen.iter().enumerate() {
            assert!(n >= 8, "sender {s} carries only {n}/64 ranges");
        }
        // And the assignment is a pure function of (sc, first).
        assert_eq!(carrier_for(3, Position(97), 4), carrier_for(3, Position(97), 4));
    }

    #[test]
    fn range_digest_binds_position_length_and_root() {
        let root = Digest::of_bytes(b"root");
        let base = range_digest(1, Position(5), 4, &root);
        assert_ne!(base, range_digest(1, Position(6), 4, &root), "shifted start");
        assert_ne!(base, range_digest(1, Position(5), 3, &root), "truncated length");
        assert_ne!(base, range_digest(2, Position(5), 4, &root), "other subchannel");
        assert_ne!(base, range_digest(1, Position(5), 4, &Digest::of_bytes(b"r2")), "other root");
    }

    /// The tag block and the fields, as the statement's oracle lays them
    /// out for itself.
    fn statement_input(sc: Subchannel, first: u64, count: u32, root: &Digest) -> Vec<u8> {
        let mut input = RANGE_TAG.as_bytes().to_vec();
        input.resize(64, 0);
        input.extend_from_slice(&sc.to_be_bytes());
        input.extend_from_slice(&first.to_be_bytes());
        input.extend_from_slice(&count.to_be_bytes());
        input.extend_from_slice(&root.0);
        input
    }

    /// The statement is the standard SHA-256 of `tag block ‖ fields`
    /// (116 bytes): streamed through the selected kernel and hashed on
    /// the portable one, which re-derives the domain's chaining value
    /// from its tag block.
    #[test]
    fn a_range_statement_is_sha256_of_its_tag_block_then_its_fields() {
        for (sc, first, count) in [(0, 1, 1), (3, 97, 32), (u64::MAX, u64::MAX, u32::MAX)] {
            let root = Digest::builder().u64(sc).u64(first).finish();
            let input = statement_input(sc, first, count, &root);
            assert_eq!(input.len(), 116);
            let mut streamed = Sha256::new();
            let (tag, fields) = input.split_at(64);
            streamed.update(tag);
            streamed.update(fields);
            let statement = range_digest(sc, Position(first), count, &root);
            assert_eq!(statement.0, streamed.finalize(), "sc {sc}, first {first}");
            assert_eq!(statement.0, Sha256::digest_portable(&input), "portable kernel");
        }
    }

    #[test]
    fn a_slot_root_is_its_content_digest_and_a_range_root_the_merkle_root() {
        let msgs = [Blob(vec![1]), Blob(vec![2])];
        let one = Run::new(msgs[..1].to_vec());
        assert_eq!((one.leaves(), one.root()), (&[msgs[0].digest()][..], msgs[0].digest()));
        let two = Run::new(msgs.to_vec());
        assert_eq!(two.leaves(), [msgs[0].digest(), msgs[1].digest()]);
        assert_eq!(two.root(), merkle_root(&[msgs[0].digest(), msgs[1].digest()]));
        assert_eq!(TREES_BUILT.get(), 2, "one root per run; a run of one's is its leaf");
    }

    #[test]
    fn a_run_is_its_content_to_equality_debug_and_wire_size() {
        let (a, b) = (payload(3, 100), payload(3, 100));
        let _ = a.root();
        assert_eq!(a, b, "hashed or not");
        assert_eq!(format!("{a:?}"), format!("{:?}", &b[..]));
        assert_eq!((a.bytes(), a.len()), (300, 3));
    }

    /// A run of one held inline is, to everything that looks at it, the
    /// run of a one-slot list: equality, `Debug`, root, leaves and the
    /// weight of every frame that carries it.
    #[test]
    fn a_run_of_one_inline_is_a_run_of_a_one_slot_list() {
        let m = Blob(vec![7; 100]);
        let listed = Run::new(vec![m.clone()]);
        let frames = |run: &Run<Blob>| {
            let (sc, first, msgs) = (0, Position(1), run.clone());
            [
                ChannelMsg::Cast { sc, first, msgs: msgs.clone(), sig: sig() },
                ChannelMsg::Content { sc, first, msgs: msgs.clone() },
                cert(1, 2, Some(msgs)),
            ]
            .map(|frame| frame.wire_size())
        };
        for inline in [Run::one(m.clone()), [m.clone()].into_iter().collect()] {
            assert_eq!(inline, listed);
            assert_eq!(format!("{inline:?}"), format!("{listed:?}"));
            assert_eq!(inline.root(), listed.root());
            assert_eq!(inline.leaves(), listed.leaves());
            assert_eq!((inline.bytes(), inline.len()), (listed.bytes(), 1));
            assert_eq!(frames(&inline), frames(&listed));
        }
        assert_eq!(frames(&listed), [292, 204, 452]);
    }

    #[test]
    fn a_collected_run_or_sub_run_is_the_run_of_its_slots() {
        for n in [0, 2, 5] {
            let slots: Vec<Blob> = (0..n).map(|i| Blob(vec![i; 10])).collect();
            let run: Run<Blob> = slots.iter().cloned().collect();
            assert_eq!(run, Run::new(slots.clone()));
            assert_eq!(run.bytes(), 10 * n as usize);
        }
        let run = payload(3, 10);
        assert_eq!(run.sub_run(1..2), Run::new(vec![Blob(vec![0; 10])]));
        assert_eq!(run.sub_run(1..3), payload(2, 10));
        assert!(std::ptr::eq(&run.sub_run(0..3)[..], &run[..]), "the whole run is the run");
    }

    #[test]
    fn send_size_tracks_payload() {
        assert_eq!(cast(1, 1000).wire_size() - cast(1, 10).wire_size(), 990);
        assert_eq!(cast(4, 1000).wire_size() - cast(4, 10).wire_size(), 4 * 990);
    }

    #[test]
    fn range_messages_amortize_signature_bytes() {
        let n = 32usize;
        let single = cast(1, 100);
        assert!(
            cast(n, 100).wire_size() < n * single.wire_size(),
            "one signature over the range beats n signed singles"
        );
        // The shares-only certificate is content-free and tiny.
        assert!(cert(n as u32, 2, None).wire_size() < single.wire_size() + 2 * SIG_BYTES);
    }

    #[test]
    fn vouch_is_digest_sized_not_payload_sized() {
        let n = 32u32;
        let vouch: ChannelMsg<Blob> =
            ChannelMsg::Vouch { sc: 0, first: Position(1), count: n, root: Digest::of_bytes(b"x") };
        // The dedup premise on the wire: n_s - 1 vouches must be far
        // smaller than the redundant content copies they replace.
        assert!(vouch.wire_size() * 10 < cast(n as usize, 100).wire_size());
        let fetch = ReceiverMsg::FetchRange { sc: 0, first: Position(1), count: n };
        assert!(fetch.wire_size() < vouch.wire_size());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A tree's leaves and the parents one level up can give the same
        /// root; the statement tells them apart because it binds the
        /// count. Merging one sibling pair into its parent, or the whole
        /// level, never yields the statement of the original run.
        #[test]
        fn a_parent_passed_as_leaves_changes_the_statement(
            n in 2usize..40,
            pair in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let leaves: Vec<Digest> =
                (0..n as u64).map(|i| Digest::builder().u64(seed).u64(i).finish()).collect();
            let statement =
                |l: &[Digest]| range_digest(3, Position(9), l.len() as u32, &merkle_root(l));
            let i = 2 * (pair % (n / 2));
            let mut merged = leaves.clone();
            merged.splice(i..i + 2, [merkle_root(&leaves[i..i + 2])]);
            prop_assert_ne!(statement(&merged), statement(&leaves));
            let parents: Vec<Digest> = leaves.chunks(2).map(merkle_root).collect();
            prop_assert_eq!(merkle_root(&parents), merkle_root(&leaves), "same root");
            prop_assert_ne!(statement(&parents), statement(&leaves));
        }
    }
}
