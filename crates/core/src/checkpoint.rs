//! The checkpoint component (§3.4, appendix Fig 13).
//!
//! Each replica group runs one checkpoint component per replica. A replica
//! periodically hands its component a serialized snapshot
//! ([`CheckpointComponent::generate`]); the component broadcasts a signed
//! hash, collects `f + 1` matching announcements (a *stable certificate*,
//! CP-Safety A.11), and reports stability back to the replica. A trailing
//! replica calls [`CheckpointComponent::fetch`]; peers answer with the full
//! state plus the certificate, which the component validates before
//! delivering it (state transfer).
//!
//! # One rule for a stable checkpoint
//!
//! What a newly stable checkpoint asks of the replica (Fig 13 `stable_cp`)
//! is decided here, once, for both replica kinds, from one fact: the
//! replica's own vote at that sequence number. [`CpAction::Stable`] hands
//! the answer over as an [`Apply`]:
//! - [`Apply::Keep`]: the replica voted there, and its group certified no
//!   other state; there is nothing to apply.
//! - [`Apply::Install`]: it did not vote there, or its vote lost, and the
//!   component holds the certified state, which a fetch response brought.
//! - [`Apply::Fetch`]: the same, without the state.
//!
//! A replica without a vote is behind the checkpoint; one whose vote lost
//! has diverged. The component counts lost votes
//! ([`CheckpointComponent::lost_votes`]), and the replica repairs itself
//! with the fetch a laggard makes (§3.4 lets a correct replica adopt any
//! certified checkpoint): an execution replica fetches the checkpoint and
//! replays what followed it from its commit channel; an agreement replica
//! fetches past its `sn` and numbers nothing until that installs, so it
//! never goes back. The state at a lost vote is installed only if the
//! outstanding fetch asked for no more.
//!
//! The component, not the replica, owns the fetch, its retry and the
//! gossip heartbeat, for both replica kinds. A fetch stays out until the
//! component hands over a state at or past its target; it asks again on a
//! [`CpAction::SetTimer`] that the host arms and hands back to
//! [`CheckpointComponent::on_timer`], which also re-announces the stable
//! vote (§A.4.3).
//!
//! Components verify certificates against *logical group keys*
//! ([`crate::keys`]), so execution replicas can also validate checkpoints
//! fetched from *other* execution groups (§3.5 — needed by freshly added
//! groups and by groups skipped under global flow control).
//!
//! # Snapshots are lists of hashed parts
//!
//! A [`Snapshot`] is an ordered list of immutable [`Part`]s — bytes plus
//! their digest — whose concatenation is the serialized state. The value a
//! checkpoint signs ([`Snapshot::hash`]) is one domain-separated hash over
//! the part count and the part digests, so hashing a snapshot costs
//! O(parts), not O(state): a replica that re-encodes only the parts that
//! changed since its last checkpoint (see `spider_app::KvStore`) shares
//! every other part, bytes and digest, with the previous snapshot. Two
//! replicas with equal state must cut it into equal parts; the cut into
//! parts is part of the state's encoding, like field order.
//!
//! A part's bytes are themselves held as a list of *pieces*, buffers the
//! replica already has — a key-value store hands over the slices of the
//! requests its entries came from — so building a part copies nothing.
//! The cut into pieces is *not* part of the encoding: a part's digest is
//! over the concatenation of its pieces, equality compares bytes, and a
//! reader that needs them in one buffer asks [`Part::to_bytes`]. A part
//! is the unit a checkpoint re-hashes and a fetch ships.
//!
//! Nothing about the list is trusted on arrival:
//! [`CheckpointComponent::on_fetch_response`] re-hashes every part against
//! the digest it claims, then hashes the list and compares it with the
//! value under the `f + 1` signatures, so a part that is missing, added,
//! moved or altered fails one of the two checks. What [`CostModel`]
//! charges is unchanged — the paper's replicas hash the whole state, so
//! every charge and wire size is still computed from [`Snapshot::len`].

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use crate::messages::CheckpointMsg;
use bytes::Bytes;
use spider_crypto::{CostModel, Digest, Keyring, Signature};
use spider_types::{GroupId, SeqNr, SimTime, Sink};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Interval of the checkpoint-gossip heartbeat (§A.4.3).
const GOSSIP_INTERVAL: SimTime = SimTime::from_millis(1_000);

/// How long a fetch waits for the checkpoint before asking again.
const FETCH_RETRY: SimTime = SimTime::from_millis(500);

/// One immutable share of a [`Snapshot`]: some bytes of the serialized
/// state and the digest they are claimed to hash to. [`Part::new`] and
/// [`Part::from_pieces`] make the claim true; a part that arrived in a
/// message is only a claim until [`Part::is_intact`] says so.
///
/// The bytes are held as a list of *pieces* whose concatenation they are,
/// so a part can be made of buffers that already exist — the slices an
/// application keeps as its state — without copying them into one. The
/// digest is over the concatenation, so where the pieces are cut is not
/// part of anything signed: equality, like the digest, looks at the bytes
/// alone. Cloning shares the list.
#[derive(Debug, Clone)]
pub struct Part {
    /// Claimed digest of the bytes.
    pub digest: Digest,
    pieces: Arc<[Bytes]>,
    /// Total length of the pieces.
    len: usize,
}

impl Part {
    /// Hashes `bytes` into a part of one piece.
    pub fn new(bytes: Bytes) -> Part {
        Part::from_pieces([bytes])
    }

    /// Hashes the concatenation of `pieces` into a part that keeps them as
    /// they are: one allocation, for the list, and no byte copied.
    pub fn from_pieces<I>(pieces: I) -> Part
    where
        I: IntoIterator<Item = Bytes>,
        I::IntoIter: ExactSizeIterator,
    {
        // An iterator that knows its length is collected in one allocation.
        let pieces: Arc<[Bytes]> = pieces.into_iter().collect();
        let len = pieces.iter().map(Bytes::len).sum();
        Part { digest: Self::digest_of(&pieces), pieces, len }
    }

    /// The pieces, in order: the part's bytes are their concatenation.
    pub fn pieces(&self) -> &[Bytes] {
        &self.pieces
    }

    /// Length of the part's bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the part has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The part's bytes in one buffer, for a reader that needs them
    /// contiguous: the piece itself if there is one, a copy if there are
    /// several.
    pub fn to_bytes(&self) -> Bytes {
        match &*self.pieces {
            [] => Bytes::new(),
            [piece] => piece.clone(),
            pieces => Bytes::from(pieces.concat()),
        }
    }

    /// Whether the bytes hash to the claimed digest.
    pub fn is_intact(&self) -> bool {
        Self::digest_of(&self.pieces) == self.digest
    }

    fn digest_of(pieces: &[Bytes]) -> Digest {
        Digest::builder().str("snapshot-part").bytes_concat(pieces.iter().map(|p| &p[..])).finish()
    }
}

impl PartialEq for Part {
    /// Equal digests and equal bytes, however either is cut into pieces.
    fn eq(&self, other: &Part) -> bool {
        fn bytes(part: &Part) -> impl Iterator<Item = &u8> {
            part.pieces.iter().flat_map(|piece| piece.iter())
        }
        self.digest == other.digest
            && self.len == other.len
            && (Arc::ptr_eq(&self.pieces, &other.pieces) || bytes(self).eq(bytes(other)))
    }
}

/// A serialized state cut into hashed [`Part`]s (see the
/// [module docs](self)). Cloning shares the list.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    parts: Arc<[Part]>,
    /// Total length of the parts' bytes.
    len: usize,
}

impl Snapshot {
    /// A snapshot whose serialized state is the concatenation of `parts`.
    pub fn new(parts: impl IntoIterator<Item = Part>) -> Snapshot {
        let parts: Arc<[Part]> = parts.into_iter().collect();
        let len = parts.iter().map(Part::len).sum();
        Snapshot { parts, len }
    }

    /// A snapshot of one part.
    pub fn single(bytes: Bytes) -> Snapshot {
        Snapshot::new([Part::new(bytes)])
    }

    /// The parts, in order.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// Length in bytes of the serialized state.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the serialized state has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value a checkpoint signs: a hash over how many parts there are
    /// and what each claims to hash to, in order.
    pub fn hash(&self) -> Digest {
        Digest::builder()
            .str("snapshot")
            .u64(self.parts.len() as u64)
            .bytes_concat(self.parts.iter().map(|part| &part.digest.0[..]))
            .finish()
    }

    /// Whether every part hashes to the digest it claims.
    pub fn is_intact(&self) -> bool {
        self.parts.iter().all(Part::is_intact)
    }
}

/// The timers a checkpoint component keeps; the discriminant is the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpTimer {
    /// Ask again for the outstanding fetch target.
    FetchRetry,
    /// Re-announce the vote for the latest stable checkpoint.
    Gossip,
}

/// What a stable checkpoint asks of its replica, decided by the replica's
/// own vote at its sequence number (see the [module docs](self)).
#[derive(Debug, Clone)]
pub enum Apply {
    /// The replica voted for this checkpoint: nothing to apply.
    Keep,
    /// Take over this certified state, fetched from a peer.
    Install(Snapshot),
    /// The replica is behind, or its vote lost, and the component holds
    /// no state: fetch it.
    Fetch,
}

/// Effects of checkpoint-component calls.
#[derive(Debug, Clone)]
pub enum CpAction {
    /// Broadcast to every other member of the own group.
    ToGroup(CheckpointMsg),
    /// Send to a specific replica (possibly in another group).
    ToPeer {
        /// Target group.
        group: GroupId,
        /// Replica index within that group.
        idx: usize,
        /// The message.
        msg: CheckpointMsg,
    },
    /// A checkpoint became stable (Fig 13 `stable_cp`); a call emits at
    /// most one.
    Stable {
        /// Snapshot sequence number.
        seq: SeqNr,
        /// What it asks of the replica (see the [module docs](self)).
        apply: Apply,
    },
    /// Charge CPU to the host node, labeled with the operation the cost
    /// models (for CPU attribution).
    Charge(SimTime, &'static str),
    /// (Re-)arm a timer.
    SetTimer {
        /// Which timer.
        token: CpTimer,
        /// Time until it fires.
        delay: SimTime,
    },
}

fn cp_digest(group: GroupId, seq: SeqNr, state_hash: &Digest) -> Digest {
    Digest::builder().str("checkpoint").u64(group.0 as u64).u64(seq.0).digest(state_hash).finish()
}

/// Per-replica checkpoint component.
pub struct CheckpointComponent {
    group: GroupId,
    me: usize,
    f: usize,
    my_key: spider_crypto::KeyId,
    member_keys: Vec<spider_crypto::KeyId>,
    keyring: Keyring,
    cost: CostModel,
    /// Snapshots this replica holds (own or fetched), by sequence number.
    snapshots: BTreeMap<u64, (Digest, Snapshot)>,
    /// Announce votes per sequence number: member index -> (hash, sig).
    votes: BTreeMap<u64, BTreeMap<usize, (Digest, Signature)>>,
    /// Latest stable checkpoint: (seq, hash, certificate).
    stable: Option<(SeqNr, Digest, Vec<Signature>)>,
    /// Highest sequence number handed over as kept or installed.
    delivered: u64,
    /// Highest sequence number a fetch asked for: the fetch is out while
    /// it is above `delivered`.
    asked: u64,
    /// Own votes that lost: the group certified another state at their
    /// sequence number.
    lost_votes: u64,
}

impl CheckpointComponent {
    /// Creates the component for replica `me` of `group` tolerating `f`
    /// member faults.
    pub fn new(group: GroupId, me: usize, f: usize, keyring: Keyring, cost: CostModel) -> Self {
        let n = if group == crate::keys::AGREEMENT_GROUP { 3 * f + 1 } else { 2 * f + 1 };
        let member_keys = crate::keys::group_keys(group, n);
        #[expect(clippy::indexing_slicing, reason = "a replica is built with its own seat")]
        let my_key = member_keys[me];
        CheckpointComponent {
            group,
            me,
            f,
            my_key,
            member_keys,
            keyring,
            cost,
            snapshots: BTreeMap::new(),
            votes: BTreeMap::new(),
            stable: None,
            delivered: 0,
            asked: 0,
            lost_votes: 0,
        }
    }

    /// The group this component checkpoints, and which of its members
    /// (of how many) runs it.
    pub fn seat(&self) -> (GroupId, usize, usize) {
        (self.group, self.me, self.member_keys.len())
    }

    /// Latest stable checkpoint sequence number, if any.
    pub fn stable_seq(&self) -> Option<SeqNr> {
        self.stable.as_ref().map(|s| s.0)
    }

    /// How many of this replica's votes lost: each one a checkpoint at
    /// which its state differed from the state its group certified.
    pub fn lost_votes(&self) -> u64 {
        self.lost_votes
    }

    /// Fig 13 `gen_cp`: snapshot taken at `seq`; announce its hash.
    pub fn generate(&mut self, seq: SeqNr, state: Snapshot, out: &mut dyn Sink<CpAction>) {
        let hash = state.hash();
        out.emit(CpAction::Charge(self.cost.hmac(state.len()) + self.cost.rsa_sign(), "cp_sign"));
        self.snapshots.insert(seq.0, (hash, state));
        let sig = self.keyring.sign(self.my_key, &cp_digest(self.group, seq, &hash));
        let msg = CheckpointMsg::Announce { seq, state_hash: hash, sig };
        self.votes.entry(seq.0).or_default().insert(self.me, (hash, sig));
        out.emit(CpAction::ToGroup(msg));
        // A vote cast after its checkpoint became stable is checked here;
        // `certify` checks the others.
        self.lost_votes += u64::from(self.lost(seq));
        self.check_stable(seq, out);
    }

    /// Arms the gossip heartbeat; a replica calls it once, at start.
    pub fn start(&mut self, out: &mut dyn Sink<CpAction>) {
        out.emit(CpAction::SetTimer { token: CpTimer::Gossip, delay: GOSSIP_INTERVAL });
    }

    /// Fig 13 `fetch_cp`: ask peers for a stable checkpoint at or after
    /// `seq`, unless a fetch already asked for it, until the component
    /// hands over a state at or past it. The host decides which peers are
    /// asked.
    pub fn fetch(&mut self, seq: SeqNr, out: &mut dyn Sink<CpAction>) {
        if self.asked >= seq.0 {
            return;
        }
        self.asked = seq.0;
        self.ask(out);
    }

    fn ask(&self, out: &mut dyn Sink<CpAction>) {
        out.emit(CpAction::Charge(self.cost.hmac(32), "cp_mac"));
        out.emit(CpAction::ToGroup(CheckpointMsg::FetchRequest { seq: SeqNr(self.asked) }));
        out.emit(CpAction::SetTimer { token: CpTimer::FetchRetry, delay: FETCH_RETRY });
    }

    /// Whether a fetch is out.
    pub fn is_fetching(&self) -> bool {
        self.asked > self.delivered
    }

    /// A timer the component set has fired. The retry asks for the
    /// outstanding target again; gossip (§A.4.3) re-broadcasts this
    /// replica's stable vote, so that a healed laggard learns it is behind.
    pub fn on_timer(&mut self, timer: CpTimer, out: &mut dyn Sink<CpAction>) {
        match timer {
            CpTimer::FetchRetry => {
                if self.is_fetching() {
                    self.ask(out);
                }
            }
            CpTimer::Gossip => {
                if let Some(vote) = self.own_stable_vote() {
                    out.emit(CpAction::ToGroup(vote));
                }
                self.start(out);
            }
        }
    }

    /// This replica's own announcement for its latest stable checkpoint,
    /// if it voted for the certified state.
    fn own_stable_vote(&self) -> Option<CheckpointMsg> {
        let &(seq, hash, _) = self.stable.as_ref()?;
        let (state_hash, sig) = *self.votes.get(&seq.0)?.get(&self.me)?;
        (state_hash == hash).then_some(CheckpointMsg::Announce { seq, state_hash, sig })
    }

    /// The hash this replica voted for at `seq`, if it voted there.
    fn own_vote(&self, seq: SeqNr) -> Option<Digest> {
        self.votes.get(&seq.0)?.get(&self.me).map(|(hash, _)| *hash)
    }

    /// Whether this replica voted at `seq` for another state than the one
    /// stable there.
    fn lost(&self, seq: SeqNr) -> bool {
        let stable = self.stable.as_ref().filter(|(s, _, _)| *s == seq).map(|(_, h, _)| *h);
        self.own_vote(seq).zip(stable).is_some_and(|(own, hash)| own != hash)
    }

    /// Makes `hash` the state stable at `seq`, counting an own vote there
    /// that lost.
    fn certify(&mut self, seq: SeqNr, hash: Digest, cert: Vec<Signature>) {
        self.stable = Some((seq, hash, cert));
        self.lost_votes += u64::from(self.lost(seq));
    }

    /// Handles an `Announce` from member `from` of the own group.
    pub fn on_announce(
        &mut self,
        from: usize,
        seq: SeqNr,
        state_hash: Digest,
        sig: Signature,
        out: &mut dyn Sink<CpAction>,
    ) {
        let Some(&key) = self.member_keys.get(from).filter(|_| from != self.me) else {
            return;
        };
        out.emit(CpAction::Charge(self.cost.rsa_verify(), "cp_verify"));
        let digest = cp_digest(self.group, seq, &state_hash);
        if !self.keyring.verify(key, &digest, &sig) {
            return;
        }
        // Old announcement: answer the laggard at once with our own latest
        // vote, rather than leaving it to the next gossip round.
        let old = self.stable.as_ref().is_some_and(|(s, _, _)| seq < *s);
        if let Some(vote) = self.own_stable_vote().filter(|_| old) {
            out.emit(CpAction::ToPeer { group: self.group, idx: from, msg: vote });
        }
        self.votes.entry(seq.0).or_default().insert(from, (state_hash, sig));
        self.check_stable(seq, out);
    }

    fn check_stable(&mut self, seq: SeqNr, out: &mut dyn Sink<CpAction>) {
        if self.stable.as_ref().is_some_and(|(s, _, _)| *s >= seq) {
            return;
        }
        let Some(votes) = self.votes.get(&seq.0) else {
            return;
        };
        // Stability needs f+1 votes on one hash; should two hashes both
        // have them, the lower one wins. Counted in place over the at most
        // 3f+1 votes.
        let matching = |hash: Digest| votes.values().filter(move |(h, _)| *h == hash);
        let Some(hash) =
            votes.values().map(|(h, _)| *h).filter(|h| matching(*h).count() > self.f).min()
        else {
            return;
        };
        // The certificate lists the signatures in member order.
        let cert = matching(hash).map(|(_, sig)| *sig).collect();
        self.certify(seq, hash, cert);
        if seq.0 > self.delivered {
            self.hand_over(seq, None, out);
        }
    }

    /// Hands the replica the checkpoint stable at `seq`, with the state a
    /// fetch brought if there is one: the one rule of the
    /// [module docs](self).
    fn hand_over(&mut self, seq: SeqNr, fetched: Option<Snapshot>, out: &mut dyn Sink<CpAction>) {
        let lost = self.lost(seq);
        let apply = match fetched {
            _ if self.own_vote(seq).is_some() && !lost => Apply::Keep,
            // Only a fetch that asked for no more than `seq` takes the
            // replica back to it.
            Some(_) if lost && seq.0 < self.asked => return,
            Some(state) => Apply::Install(state),
            None => Apply::Fetch,
        };
        if !matches!(apply, Apply::Fetch) {
            self.delivered = seq.0;
            // Keep only what backs the stable checkpoint and what is newer.
            self.snapshots.retain(|&s, _| s >= seq.0);
            self.votes.retain(|&s, _| s >= seq.0);
        }
        out.emit(CpAction::Stable { seq, apply });
    }

    /// Handles a `FetchRequest` from replica `from_idx` of `from_group`
    /// (possibly another execution group, §3.5).
    pub fn on_fetch_request(
        &mut self,
        from_group: GroupId,
        from_idx: usize,
        seq: SeqNr,
        out: &mut dyn Sink<CpAction>,
    ) {
        let Some(&(stable_seq, hash, ref cert)) = self.stable.as_ref() else {
            return;
        };
        if stable_seq < seq {
            return; // We have nothing new enough.
        }
        let Some((_, state)) = self.snapshots.get(&stable_seq.0).filter(|(h, _)| *h == hash) else {
            return; // Stable but we never held the bytes ourselves.
        };
        out.emit(CpAction::Charge(self.cost.hmac(state.len()), "cp_hash"));
        out.emit(CpAction::ToPeer {
            group: from_group,
            idx: from_idx,
            msg: CheckpointMsg::FetchResponse {
                seq: stable_seq,
                state_hash: hash,
                cert: cert.clone(),
                snapshot: state.clone(),
            },
        });
    }

    /// Handles a `FetchResponse`. `provider_keys` are the member keys of
    /// the group the response came from (own or foreign).
    #[allow(clippy::too_many_arguments)]
    pub fn on_fetch_response(
        &mut self,
        provider_group: GroupId,
        provider_keys: &[spider_crypto::KeyId],
        seq: SeqNr,
        state_hash: Digest,
        cert: Vec<Signature>,
        state: Snapshot,
        out: &mut dyn Sink<CpAction>,
    ) {
        out.emit(CpAction::Charge(
            self.cost.hmac(state.len()) + self.cost.rsa_verify() * cert.len() as u64,
            "cp_verify",
        ));
        if seq.0 <= self.delivered {
            return;
        }
        // Every part must hash to the digest it claims and the list of
        // those digests to the certified value…
        if !state.is_intact() || state.hash() != state_hash {
            return;
        }
        // …and the certificate must carry f+1 valid signatures from
        // distinct members of the providing group.
        let digest = cp_digest(provider_group, seq, &state_hash);
        let mut seen = std::collections::BTreeSet::new();
        let valid = cert
            .iter()
            .filter(|sig| {
                provider_keys.iter().position(|k| *k == sig.signer).is_some_and(|i| {
                    seen.insert(i) && self.keyring.verify(sig.signer, &digest, sig)
                })
            })
            .count();
        if valid < self.f + 1 {
            return;
        }
        self.snapshots.insert(seq.0, (state_hash, state.clone()));
        // Adopt the certificate when it comes from our own group, so we
        // can serve later fetches ourselves. A foreign-group checkpoint is
        // applied but not re-served (its certificate names foreign keys).
        if provider_group == self.group && self.stable.as_ref().is_none_or(|(s, _, _)| *s < seq) {
            self.certify(seq, state_hash, cert);
        }
        self.hand_over(seq, Some(state), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_types::GroupId;

    fn comp(me: usize) -> CheckpointComponent {
        CheckpointComponent::new(GroupId(0), me, 1, Keyring::new(3), CostModel::zero())
    }

    /// A snapshot of several parts (one of them empty, as an untouched
    /// store bucket is) whose concatenation is `head ‖ "-" ‖ tail`.
    fn snap(head: &'static str, tail: &'static str) -> Snapshot {
        Snapshot::new(vec![
            Part::new(Bytes::from_static(head.as_bytes())),
            Part::new(Bytes::new()),
            Part::new(Bytes::from_static(b"-")),
            Part::new(Bytes::from_static(tail.as_bytes())),
        ])
    }

    fn announce_of(out: &[CpAction]) -> (SeqNr, Digest, Signature) {
        out.iter()
            .find_map(|a| match a {
                CpAction::ToGroup(CheckpointMsg::Announce { seq, state_hash, sig }) => {
                    Some((*seq, *state_hash, *sig))
                }
                _ => None,
            })
            .expect("announce emitted")
    }

    /// `a` and `b` make `state` stable at `seq`; returns `a`'s answer to a
    /// fetch by replica 2: `(seq, hash, certificate, snapshot)`.
    fn stable_fetch_response(
        seq: u64,
        state: Snapshot,
    ) -> (SeqNr, Digest, Vec<Signature>, Snapshot) {
        let mut a = comp(0);
        let mut b = comp(1);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.generate(SeqNr(seq), state.clone(), &mut out_a);
        b.generate(SeqNr(seq), state, &mut out_b);
        let (seq, hash, sig) = announce_of(&out_b);
        let mut sink = Vec::new();
        a.on_announce(1, seq, hash, sig, &mut sink);
        let mut resp_out = Vec::new();
        a.on_fetch_request(GroupId(0), 2, SeqNr(1), &mut resp_out);
        resp_out
            .iter()
            .find_map(|x| match x {
                CpAction::ToPeer {
                    msg: CheckpointMsg::FetchResponse { seq, state_hash, cert, snapshot },
                    ..
                } => Some((*seq, *state_hash, cert.clone(), snapshot.clone())),
                _ => None,
            })
            .expect("fetch response with state")
    }

    /// Hands replica `c` the fetch response `a` of [`stable_fetch_response`]
    /// gave.
    fn respond(
        c: &mut CheckpointComponent,
        (seq, hash, cert, state): (SeqNr, Digest, Vec<Signature>, Snapshot),
        out: &mut Vec<CpAction>,
    ) {
        let keys = crate::keys::exec_keys(GroupId(0), 3);
        c.on_fetch_response(GroupId(0), &keys, seq, hash, cert, state, out);
    }

    /// What a fresh replica 2 installs when handed this fetch response.
    fn fetched(
        seq: SeqNr,
        hash: Digest,
        cert: Vec<Signature>,
        state: Snapshot,
    ) -> Option<Snapshot> {
        let mut out = Vec::new();
        respond(&mut comp(2), (seq, hash, cert, state), &mut out);
        out.into_iter().find_map(|x| match x {
            CpAction::Stable { apply: Apply::Install(state), .. } => Some(state),
            _ => None,
        })
    }

    /// The stable checkpoints `out` hands over, as `"<apply> <seq>"`.
    fn stables(out: &[CpAction]) -> Vec<String> {
        out.iter()
            .filter_map(|a| match a {
                CpAction::Stable { seq, apply } => {
                    let apply = match apply {
                        Apply::Keep => "keep",
                        Apply::Install(_) => "install",
                        Apply::Fetch => "fetch",
                    };
                    Some(format!("{apply} {}", seq.0))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn snapshot_is_its_parts_in_order() {
        let s = snap("the", "state");
        let bytes: Vec<u8> = s.parts().iter().flat_map(|p| p.to_bytes().to_vec()).collect();
        assert_eq!(bytes, b"the-state");
        assert_eq!(s.len(), 9);
        assert!(!s.is_empty());
        assert!(s.is_intact());
        assert_eq!(s.hash(), snap("the", "state").hash());
        // The same bytes cut differently into parts are a different
        // snapshot: the cut into parts is part of the encoding.
        assert_ne!(s.hash(), Snapshot::single(Bytes::from_static(b"the-state")).hash());
        assert_ne!(s.hash(), snap("state", "the").hash());
    }

    #[test]
    fn a_part_is_its_bytes_not_its_cut() {
        let whole = Part::new(Bytes::from_static(b"the-state"));
        let bytes = Bytes::from_static(b"the-state");
        let cut = Part::from_pieces([bytes.slice(..3), bytes.slice(3..4), bytes.slice(4..)]);
        assert_eq!((whole.pieces().len(), cut.pieces().len()), (1, 3));
        assert_eq!(cut, whole);
        assert_eq!(cut.digest, whole.digest);
        assert_eq!((cut.len(), &cut.to_bytes()[..]), (9, &b"the-state"[..]));
        assert!(cut.is_intact() && whole.is_intact());
        let with =
            |part: &Part| Snapshot::new([Part::new(Bytes::from_static(b"head")), part.clone()]);
        assert_eq!(with(&cut).hash(), with(&whole).hash());
        assert_eq!(with(&cut), with(&whole));
        // Other bytes under the same digest are another part.
        let forged = Part { digest: whole.digest, ..Part::new(Bytes::from_static(b"the-other")) };
        assert_ne!(forged, whole);
        assert!(!forged.is_intact());
    }

    #[test]
    fn two_matching_announcements_make_stable() {
        let mut a = comp(0);
        let mut b = comp(1);
        let state = snap("snapshot", "bytes");
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.generate(SeqNr(10), state.clone(), &mut out_a);
        b.generate(SeqNr(10), state, &mut out_b);
        assert!(a.stable_seq().is_none(), "own vote alone is not stable");

        let (seq, hash, sig) = announce_of(&out_b);
        let mut out = Vec::new();
        a.on_announce(1, seq, hash, sig, &mut out);
        assert_eq!(a.stable_seq(), Some(SeqNr(10)));
        assert_eq!(stables(&out), ["keep 10"], "a voted for it");
    }

    /// A replica that did not vote at a checkpoint that became stable is
    /// behind it: with no state to install, it fetches.
    #[test]
    fn a_replica_without_a_vote_fetches() {
        let (mut a, mut b, mut c) = (comp(0), comp(1), comp(2));
        let state = snap("snapshot", "bytes");
        let mut announced = Vec::new();
        a.generate(SeqNr(10), state.clone(), &mut announced);
        b.generate(SeqNr(10), state, &mut announced);
        let mut out = Vec::new();
        for (from, (seq, hash, sig)) in
            [(0, announce_of(&announced)), (1, announce_of(&announced[2..]))]
        {
            c.on_announce(from, seq, hash, sig, &mut out);
        }
        assert_eq!(c.stable_seq(), Some(SeqNr(10)));
        assert_eq!(stables(&out), ["fetch 10"]);
        // The fetched state is then installed, once.
        let response = stable_fetch_response(10, snap("snapshot", "bytes"));
        let mut out = Vec::new();
        respond(&mut c, response.clone(), &mut out);
        assert_eq!(stables(&out), ["install 10"]);
        let mut out = Vec::new();
        respond(&mut c, response, &mut out);
        assert!(stables(&out).is_empty(), "nothing new");
    }

    /// A fetch response at a checkpoint the replica voted for holds
    /// nothing it lacks.
    #[test]
    fn a_fetched_checkpoint_the_replica_voted_for_is_kept() {
        let mut c = comp(2);
        c.generate(SeqNr(10), snap("snapshot", "bytes"), &mut Vec::new());
        let mut out = Vec::new();
        respond(&mut c, stable_fetch_response(10, snap("snapshot", "bytes")), &mut out);
        assert_eq!(stables(&out), ["keep 10"]);
        assert_eq!(c.stable_seq(), Some(SeqNr(10)), "the certificate is adopted");
    }

    #[test]
    fn mismatching_hashes_never_stabilize() {
        let mut a = comp(0);
        let mut b = comp(1);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        a.generate(SeqNr(10), snap("state", "one"), &mut out_a);
        b.generate(SeqNr(10), snap("state", "two"), &mut out_b);
        let (seq, hash, sig) = announce_of(&out_b);
        let mut out = Vec::new();
        a.on_announce(1, seq, hash, sig, &mut out);
        assert_eq!(a.stable_seq(), None);
    }

    /// A replica whose state differs from its group's loses its vote, and
    /// the loss is counted: when the group's votes make the checkpoint
    /// stable after it voted, and when it votes after that.
    /// Members 0 and 1 announce `snap("state", "one")` at 10 to `c`; returns
    /// the stable checkpoints that hands over.
    fn certify(c: &mut CheckpointComponent) -> Vec<String> {
        let (mut a, mut b) = (comp(0), comp(1));
        let mut announced = Vec::new();
        a.generate(SeqNr(10), snap("state", "one"), &mut announced);
        b.generate(SeqNr(10), snap("state", "one"), &mut announced);
        let mut out = Vec::new();
        for (from, (seq, hash, sig)) in
            [(0, announce_of(&announced)), (1, announce_of(&announced[2..]))]
        {
            c.on_announce(from, seq, hash, sig, &mut out);
        }
        assert_eq!(c.stable_seq(), Some(SeqNr(10)));
        stables(&out)
    }

    #[test]
    fn a_vote_for_another_state_is_counted_as_lost() {
        let mut announced = Vec::new();
        comp(0).generate(SeqNr(5), snap("state", "five"), &mut announced);
        let old = announce_of(&announced);

        let mut c = comp(2);
        c.generate(SeqNr(10), snap("state", "two"), &mut Vec::new());
        assert_eq!(c.lost_votes(), 0, "nothing is stable yet");
        assert_eq!(certify(&mut c), ["fetch 10"], "it repairs itself");
        assert_eq!(c.lost_votes(), 1);
        // A laggard's old announcement is answered only with a vote for
        // the certified state.
        let mut out = Vec::new();
        c.on_announce(0, old.0, old.1, old.2, &mut out);
        assert!(!out.iter().any(|a| matches!(a, CpAction::ToPeer { .. })), "{out:?}");

        let mut late = comp(2);
        assert_eq!(certify(&mut late), ["fetch 10"]);
        late.generate(SeqNr(10), snap("state", "two"), &mut Vec::new());
        assert_eq!(late.lost_votes(), 1);
        let mut matching = comp(2);
        certify(&mut matching);
        matching.generate(SeqNr(10), snap("state", "one"), &mut Vec::new());
        assert_eq!(matching.lost_votes(), 0);
    }

    /// A replica whose vote lost installs the certified state that the
    /// fetch it asks for brings, although it voted at that checkpoint. A
    /// fetch that asks past the checkpoint, as an agreement replica's
    /// does, takes it no further back.
    #[test]
    fn a_lost_vote_is_repaired_by_the_fetch_that_asked_for_it() {
        let diverged = || {
            let mut c = comp(2);
            c.generate(SeqNr(10), snap("state", "two"), &mut Vec::new());
            assert_eq!(certify(&mut c), ["fetch 10"]);
            c
        };
        let response = stable_fetch_response(10, snap("state", "one"));

        let mut execution = diverged();
        let mut out = Vec::new();
        execution.fetch(SeqNr(10), &mut out);
        respond(&mut execution, response.clone(), &mut out);
        assert_eq!(stables(&out), ["install 10"]);
        assert!(!execution.is_fetching());

        let mut agreement = diverged();
        let mut out = Vec::new();
        agreement.fetch(SeqNr(12), &mut out);
        respond(&mut agreement, response, &mut out);
        assert!(stables(&out).is_empty(), "{out:?}");
        assert!(agreement.is_fetching());
        assert_eq!((execution.lost_votes(), agreement.lost_votes()), (1, 1));
    }

    #[test]
    fn forged_announcement_is_rejected() {
        let mut a = comp(0);
        let state = snap("s", "s");
        let hash = state.hash();
        // Signed with the wrong identity (member 2 claims to be 1).
        let ring = Keyring::new(3);
        let bad_sig = ring
            .sign(crate::keys::exec_key(GroupId(0), 2), &cp_digest(GroupId(0), SeqNr(10), &hash));
        let mut out = Vec::new();
        a.generate(SeqNr(10), state, &mut out);
        a.on_announce(1, SeqNr(10), hash, bad_sig, &mut out);
        assert_eq!(a.stable_seq(), None);
    }

    #[test]
    fn fetch_response_transfers_verified_state() {
        // a and b stabilize a checkpoint; c (fresh) fetches it from a.
        let (seq, hash, cert, state) = stable_fetch_response(20, snap("the", "state"));
        assert_eq!(seq, SeqNr(20));
        let got = fetched(seq, hash, cert, state).expect("delivered with state");
        assert_eq!(got, snap("the", "state"));
    }

    #[test]
    fn fetch_response_with_tampered_state_rejected() {
        let (seq, hash, cert, state) = stable_fetch_response(5, snap("real", "state"));
        let parts = state.parts().to_vec();
        let rebuilt = |parts: Vec<Part>| fetched(seq, hash, cert.clone(), Snapshot::new(parts));
        assert!(rebuilt(parts.clone()).is_some(), "the untouched list is accepted");

        // Different content, honestly hashed: the list no longer hashes
        // to the certified value.
        assert!(fetched(seq, hash, cert.clone(), snap("fake", "state")).is_none());

        // One byte flipped in one part under its old digest: the part no
        // longer hashes to its claim (the list hash alone would not see it).
        let mut flipped = parts.clone();
        flipped[3] = Part { digest: parts[3].digest, ..Part::new(Bytes::from_static(b"stale")) };
        assert_eq!(Snapshot::new(flipped.clone()).hash(), hash);
        assert!(rebuilt(flipped).is_none());

        // A part dropped, two parts swapped, a part added.
        let mut dropped = parts.clone();
        dropped.remove(1);
        assert!(rebuilt(dropped).is_none());
        let mut swapped = parts.clone();
        swapped.swap(0, 3);
        assert!(rebuilt(swapped).is_none());
        let mut extra = parts.clone();
        extra.push(Part::new(Bytes::new()));
        assert!(rebuilt(extra).is_none());
        let mut extra = parts;
        extra.push(Part::new(Bytes::from_static(b"more")));
        assert!(rebuilt(extra).is_none());
    }

    /// The fetch requests, timers and stable checkpoints `call` makes `c`
    /// emit, in order.
    fn fetch_io(
        c: &mut CheckpointComponent,
        call: impl FnOnce(&mut CheckpointComponent, &mut Vec<CpAction>),
    ) -> Vec<String> {
        let mut out = Vec::new();
        call(c, &mut out);
        out.iter()
            .filter_map(|a| match a {
                CpAction::ToGroup(CheckpointMsg::FetchRequest { seq }) => {
                    Some(format!("fetch {}", seq.0))
                }
                CpAction::SetTimer { token, delay } => Some(format!("{token:?} {delay}")),
                CpAction::Stable { .. } => stables(std::slice::from_ref(a)).pop(),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn one_fetch_is_out_until_the_replica_reaches_it() {
        let mut c = comp(2);
        let fetch = |seq| {
            move |c: &mut CheckpointComponent, out: &mut Vec<CpAction>| c.fetch(SeqNr(seq), out)
        };
        let retry = |c: &mut CheckpointComponent, out: &mut Vec<CpAction>| {
            c.on_timer(CpTimer::FetchRetry, out)
        };
        let install = |seq| {
            move |c: &mut CheckpointComponent, out: &mut Vec<CpAction>| {
                respond(c, stable_fetch_response(seq, snap("state", "x")), out)
            }
        };
        let asked = |seq| vec![format!("fetch {seq}"), "FetchRetry 500.000ms".to_owned()];
        assert_eq!(fetch_io(&mut c, fetch(16)), asked(16));
        // A target the outstanding fetch covers sends nothing…
        assert!(fetch_io(&mut c, fetch(16)).is_empty());
        assert!(fetch_io(&mut c, fetch(9)).is_empty());
        // …a higher one asks again.
        assert_eq!(fetch_io(&mut c, fetch(24)), asked(24));
        // The retry asks for the outstanding target and re-arms.
        assert_eq!(fetch_io(&mut c, retry), asked(24));
        // A state short of the target is installed and leaves the fetch
        // out; one at or past it ends the fetch, and the retry then sends
        // nothing.
        assert_eq!(fetch_io(&mut c, install(16)), ["install 16"]);
        assert!(c.is_fetching());
        assert_eq!(fetch_io(&mut c, retry), asked(24));
        assert_eq!(fetch_io(&mut c, install(32)), ["install 32"]);
        assert!(!c.is_fetching());
        assert!(fetch_io(&mut c, retry).is_empty());
        // A target past what was installed asks again.
        assert_eq!(fetch_io(&mut c, fetch(40)), asked(40));
    }

    #[test]
    fn the_gossip_heartbeat_re_arms_itself() {
        let mut a = comp(0);
        assert_eq!(fetch_io(&mut a, |a, out| a.start(out)), ["Gossip 1.000s"]);
        // Nothing is stable yet, so there is nothing to announce, but the
        // heartbeat goes on.
        let mut out = Vec::new();
        a.on_timer(CpTimer::Gossip, &mut out);
        assert!(matches!(out[..], [CpAction::SetTimer { token: CpTimer::Gossip, .. }]));
    }

    #[test]
    fn stable_is_monotonic() {
        let mut a = comp(0);
        let mut b = comp(1);
        for (seq, state) in [(10u64, snap("state", "10")), (20, snap("state", "20"))] {
            let mut out_a = Vec::new();
            let mut out_b = Vec::new();
            a.generate(SeqNr(seq), state.clone(), &mut out_a);
            b.generate(SeqNr(seq), state, &mut out_b);
            let (s, h, sig) = announce_of(&out_b);
            let mut sink = Vec::new();
            a.on_announce(1, s, h, sig, &mut sink);
        }
        assert_eq!(a.stable_seq(), Some(SeqNr(20)));
        // A late announce for 10 must not regress anything.
        let mut out_b = Vec::new();
        let mut b2 = comp(1);
        b2.generate(SeqNr(10), snap("state", "10"), &mut out_b);
        let (s, h, sig) = announce_of(&out_b);
        let mut out = Vec::new();
        a.on_announce(1, s, h, sig, &mut out);
        assert_eq!(a.stable_seq(), Some(SeqNr(20)));
        // It does, however, trigger help for the laggard.
        assert!(out.iter().any(|x| matches!(
            x,
            CpAction::ToPeer { msg: CheckpointMsg::Announce { seq, .. }, .. } if *seq == SeqNr(20)
        )));
    }
}
