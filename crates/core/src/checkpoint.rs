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
//! replicas with equal state must cut it into equal parts; the cut is part
//! of the state's encoding, like field order.
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

/// One immutable piece of a [`Snapshot`]: some bytes of the serialized
/// state and the digest they are claimed to hash to. [`Part::new`] makes
/// the claim true; a part that arrived in a message is only a claim until
/// [`Part::is_intact`] says so.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Claimed digest of `bytes`.
    pub digest: Digest,
    /// This part's share of the serialized state.
    pub bytes: Bytes,
}

impl Part {
    /// Hashes `bytes` into a part.
    pub fn new(bytes: Bytes) -> Part {
        Part { digest: Self::digest_of(&bytes), bytes }
    }

    /// Whether the bytes hash to the claimed digest.
    pub fn is_intact(&self) -> bool {
        Self::digest_of(&self.bytes) == self.digest
    }

    fn digest_of(bytes: &[u8]) -> Digest {
        Digest::builder().str("snapshot-part").bytes(bytes).finish()
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
        let len = parts.iter().map(|p| p.bytes.len()).sum();
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
        let mut digests = Vec::with_capacity(32 * self.parts.len());
        for part in self.parts.iter() {
            digests.extend_from_slice(&part.digest.0);
        }
        Digest::builder().str("snapshot").u64(self.parts.len() as u64).bytes(&digests).finish()
    }

    /// Whether every part hashes to the digest it claims.
    pub fn is_intact(&self) -> bool {
        self.parts.iter().all(Part::is_intact)
    }

    /// The serialized state in one buffer (state transfer decodes this).
    pub fn concat(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for part in self.parts.iter() {
            out.extend_from_slice(&part.bytes);
        }
        out
    }
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
        /// Snapshot payload for fetch responses.
        state: Option<Snapshot>,
    },
    /// A checkpoint became stable (Fig 13 `stable_cp`): the host must
    /// apply it if it is ahead of the local state. `state` is present when
    /// the component holds the snapshot (own or fetched). A call emits at
    /// most one.
    Stable {
        /// Snapshot sequence number.
        seq: SeqNr,
        /// The snapshot, if locally available.
        state: Option<Snapshot>,
    },
    /// Charge CPU to the host node, labeled with the operation the cost
    /// models (for CPU attribution).
    Charge(SimTime, &'static str),
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
    /// Highest sequence number delivered via `Stable` *with* state.
    delivered: u64,
    /// Highest sequence number announced via a state-less `Stable`
    /// notification (the host reacts by fetching).
    notified: u64,
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
            notified: 0,
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

    /// Fig 13 `gen_cp`: snapshot taken at `seq`; announce its hash.
    pub fn generate(&mut self, seq: SeqNr, state: Snapshot, out: &mut dyn Sink<CpAction>) {
        let hash = state.hash();
        out.emit(CpAction::Charge(self.cost.hmac(state.len()) + self.cost.rsa_sign(), "cp_sign"));
        self.snapshots.insert(seq.0, (hash, state));
        let sig = self.keyring.sign(self.my_key, &cp_digest(self.group, seq, &hash));
        let msg = CheckpointMsg::Announce { seq, state_hash: hash, sig };
        self.votes.entry(seq.0).or_default().insert(self.me, (hash, sig));
        out.emit(CpAction::ToGroup(msg));
        self.check_stable(seq, out);
    }

    /// Fig 13 `fetch_cp`: ask peers for a stable checkpoint at or after
    /// `seq`. The host decides which peers receive the emitted request.
    pub fn fetch(&mut self, seq: SeqNr, out: &mut dyn Sink<CpAction>) {
        out.emit(CpAction::Charge(self.cost.hmac(32), "cp_mac"));
        out.emit(CpAction::ToGroup(CheckpointMsg::FetchRequest { seq }));
    }

    /// Periodic gossip (§A.4.3: correct replicas continuously inform each
    /// other about their latest stable checkpoint): re-broadcasts this
    /// replica's announce vote for the latest stable sequence number so
    /// that a partition-healed laggard learns it fell behind.
    pub fn gossip(&mut self, out: &mut dyn Sink<CpAction>) {
        let Some((seq, _, _)) = &self.stable else {
            return;
        };
        let Some((hash, sig)) = self.votes.get(&seq.0).and_then(|v| v.get(&self.me)).copied()
        else {
            return;
        };
        out.emit(CpAction::ToGroup(CheckpointMsg::Announce { seq: *seq, state_hash: hash, sig }));
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
        // Old announcement: help the laggard with our own latest vote
        // (keeps CP-Liveness without a periodic gossip timer).
        if let Some((stable_seq, hash, _)) = &self.stable {
            if seq < *stable_seq {
                if let Some((_, (h, s))) = self
                    .votes
                    .get(&stable_seq.0)
                    .and_then(|v| v.get_key_value(&self.me))
                    .map(|(k, v)| (*k, *v))
                {
                    debug_assert_eq!(h, *hash);
                    out.emit(CpAction::ToPeer {
                        group: self.group,
                        idx: from,
                        msg: CheckpointMsg::Announce { seq: *stable_seq, state_hash: h, sig: s },
                        state: None,
                    });
                }
            }
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
        self.stable = Some((seq, hash, cert));
        self.deliver_stable(out);
    }

    fn deliver_stable(&mut self, out: &mut dyn Sink<CpAction>) {
        let Some(&(seq, hash, _)) = self.stable.as_ref() else {
            return;
        };
        if seq.0 <= self.delivered {
            return;
        }
        // Deliver with state when we hold a matching snapshot; otherwise
        // notify without state so the host can fetch (a later
        // FetchResponse will re-deliver with state).
        let state = self.snapshots.get(&seq.0).filter(|(h, _)| *h == hash).map(|(_, b)| b.clone());
        match state {
            Some(state) => {
                self.delivered = seq.0;
                // Keep only the snapshot backing the stable checkpoint.
                self.snapshots.retain(|&s, _| s >= seq.0);
                self.votes.retain(|&s, _| s >= seq.0);
                out.emit(CpAction::Stable { seq, state: Some(state) });
            }
            None => {
                if seq.0 > self.notified {
                    self.notified = seq.0;
                    out.emit(CpAction::Stable { seq, state: None });
                }
            }
        }
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
                state_bytes: state.len(),
            },
            state: Some(state.clone()),
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
            self.stable = Some((seq, state_hash, cert));
        }
        self.delivered = seq.0;
        self.snapshots.retain(|&s, _| s >= seq.0);
        self.votes.retain(|&s, _| s >= seq.0);
        out.emit(CpAction::Stable { seq, state: Some(state) });
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
                    msg: CheckpointMsg::FetchResponse { seq, state_hash, cert, state_bytes },
                    state: Some(state),
                    ..
                } => {
                    assert_eq!(*state_bytes, state.len(), "the wire size is the state's length");
                    Some((*seq, *state_hash, cert.clone(), state.clone()))
                }
                _ => None,
            })
            .expect("fetch response with state")
    }

    /// What a fresh replica 2 delivers when handed this fetch response.
    fn fetched(
        seq: SeqNr,
        hash: Digest,
        cert: Vec<Signature>,
        state: Snapshot,
    ) -> Option<Snapshot> {
        let mut c = comp(2);
        let mut out = Vec::new();
        let keys = crate::keys::exec_keys(GroupId(0), 3);
        c.on_fetch_response(GroupId(0), &keys, seq, hash, cert, state, &mut out);
        out.into_iter().find_map(|x| match x {
            CpAction::Stable { state, .. } => state,
            _ => None,
        })
    }

    #[test]
    fn snapshot_is_its_parts_in_order() {
        let s = snap("the", "state");
        assert_eq!(s.concat(), b"the-state");
        assert_eq!(s.len(), 9);
        assert!(!s.is_empty());
        assert!(s.is_intact());
        assert_eq!(s.hash(), snap("the", "state").hash());
        // The same bytes cut differently are a different snapshot: the
        // cut is part of the encoding.
        assert_ne!(s.hash(), Snapshot::single(Bytes::from_static(b"the-state")).hash());
        assert_ne!(s.hash(), snap("state", "the").hash());
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
        assert!(out.iter().any(|x| matches!(
            x,
            CpAction::Stable { seq, state: Some(_) } if *seq == SeqNr(10)
        )));
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
        flipped[3].bytes = Bytes::from_static(b"stale");
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
