//! Messages of the baseline systems.

use spider::messages::{ClientRequest, Reply};
use spider_crypto::{Digest, Digestible, Hashed, ThresholdSig};
use spider_types::wire::{DIGEST_BYTES, HEADER_BYTES, MAC_BYTES, SIG_BYTES};
use spider_types::{SeqNr, WireSize};

/// A client request as the baselines pass it around: hashed once for
/// every replica and protocol step that authenticates it.
pub type Request = Hashed<ClientRequest>;

/// Steward (HFT) wide-area and site-internal messages.
#[derive(Debug, Clone, PartialEq)]
pub enum StewardMsg {
    /// A local-site replica forwards a client request to the leader site.
    Forward(Request),
    /// Threshold-signed proposal of `(seq, request)` by the leader site.
    Proposal {
        /// Global sequence number (= leader site's local order).
        seq: SeqNr,
        /// The proposed request.
        request: Request,
        /// The leader site's threshold signature.
        tsig: ThresholdSig,
    },
    /// A site-internal threshold share over a proposal or accept digest.
    Share {
        /// Sequence number the share refers to.
        seq: SeqNr,
        /// Digest the share signs.
        digest: Digest,
        /// The share.
        share: spider_crypto::SigShare,
        /// `true` for accept shares, `false` for proposal shares.
        accept: bool,
    },
    /// Threshold-signed site acceptance of global sequence number `seq`.
    Accept {
        /// Accepted sequence number.
        seq: SeqNr,
        /// Digest of the accepted proposal.
        digest: Digest,
        /// Index of the accepting site.
        site: u16,
        /// The site's threshold signature.
        tsig: ThresholdSig,
    },
}

impl WireSize for StewardMsg {
    fn wire_size(&self) -> usize {
        match self {
            StewardMsg::Forward(r) => HEADER_BYTES + r.wire_size(),
            StewardMsg::Proposal { request, .. } => {
                // Threshold signature is RSA-sized.
                HEADER_BYTES + 8 + request.wire_size() + SIG_BYTES
            }
            StewardMsg::Share { .. } => HEADER_BYTES + 8 + DIGEST_BYTES + SIG_BYTES,
            StewardMsg::Accept { .. } => HEADER_BYTES + 12 + DIGEST_BYTES + SIG_BYTES,
        }
    }
}

/// Top-level message type shared by all baseline deployments.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseMsg {
    /// Client -> replicas.
    Request(Request),
    /// Replica -> client.
    Reply(Reply),
    /// PBFT traffic (BFT / BFT-WV global group; HFT site-local groups).
    Pbft(spider_consensus::Msg<Request>),
    /// Steward-specific traffic.
    Steward(StewardMsg),
}

impl WireSize for BaseMsg {
    fn wire_size(&self) -> usize {
        match self {
            BaseMsg::Request(r) => r.wire_size(),
            BaseMsg::Reply(r) => r.wire_size() + MAC_BYTES,
            BaseMsg::Pbft(m) => m.wire_size(),
            BaseMsg::Steward(m) => m.wire_size(),
        }
    }
}

/// Digest a Steward proposal signs: binds sequence number and request.
pub fn proposal_digest(seq: SeqNr, request: &Request) -> Digest {
    Digest::builder().str("steward-proposal").u64(seq.0).digest(&request.digest()).finish()
}

/// Digest a Steward accept signs.
pub fn accept_digest(seq: SeqNr, proposal: &Digest) -> Digest {
    Digest::builder().str("steward-accept").u64(seq.0).digest(proposal).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use spider::messages::Operation;
    use spider_types::{ClientId, OpKind};

    fn request() -> Request {
        Hashed::new(ClientRequest {
            client: ClientId(1),
            tc: 1,
            operation: Operation { op: Bytes::from_static(b"x"), kind: OpKind::Write },
        })
    }

    #[test]
    fn digests_bind_sequence_numbers() {
        let r = request();
        assert_ne!(proposal_digest(SeqNr(1), &r), proposal_digest(SeqNr(2), &r));
        let p = proposal_digest(SeqNr(1), &r);
        assert_ne!(accept_digest(SeqNr(1), &p), accept_digest(SeqNr(2), &p));
        assert_ne!(proposal_digest(SeqNr(1), &r), accept_digest(SeqNr(1), &p));
    }

    #[test]
    fn steward_message_sizes_are_plausible() {
        let r = request();
        let fwd = StewardMsg::Forward(r.clone());
        assert!(fwd.wire_size() > r.wire_size());
        let share = StewardMsg::Share {
            seq: SeqNr(1),
            digest: Digest::ZERO,
            share: spider_crypto::ThresholdKeyring::new(1, 2).share(
                spider_crypto::threshold::ThresholdGroupId(0),
                0,
                &Digest::ZERO,
            ),
            accept: false,
        };
        assert!(share.wire_size() >= SIG_BYTES);
    }
}
