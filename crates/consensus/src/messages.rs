//! PBFT wire messages.

use crate::Payload;
use spider_crypto::Digest;
use spider_types::wire::{mac_vector_bytes, DIGEST_BYTES, HEADER_BYTES};
use spider_types::{SeqNr, ViewNr, WireSize};
use std::sync::Arc;

/// A prepared certificate: proof that a batch was prepared at `(view, seq)`.
///
/// Carried inside view-change messages so a new leader can re-propose
/// everything that might already have committed somewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedCert<P> {
    /// Instance number.
    pub seq: SeqNr,
    /// View in which the batch prepared.
    pub view: ViewNr,
    /// Digest of the batch.
    pub digest: Digest,
    /// The batch itself (so re-proposal needs no extra fetch round),
    /// shared with the instance that prepared it.
    pub batch: Arc<Vec<P>>,
}

impl<P: Payload> WireSize for PreparedCert<P> {
    fn wire_size(&self) -> usize {
        HEADER_BYTES + DIGEST_BYTES + self.batch.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

/// A view-change vote: "I want to move to `new_view`".
#[derive(Debug, Clone, PartialEq)]
pub struct ViewChangeMsg<P> {
    /// The view the sender wants to enter.
    pub new_view: ViewNr,
    /// The sender's garbage-collection horizon (last forgotten instance).
    pub h: SeqNr,
    /// All instances prepared above `h` at the sender.
    pub prepared: Vec<PreparedCert<P>>,
    /// Index of the sending replica within the group.
    pub sender: usize,
}

impl<P: Payload> WireSize for ViewChangeMsg<P> {
    fn wire_size(&self) -> usize {
        HEADER_BYTES
            + 16
            + self.prepared.iter().map(WireSize::wire_size).sum::<usize>()
            // View changes are signed in PBFT.
            + spider_types::wire::SIG_BYTES
    }
}

/// New-view announcement from the leader of `view`, carrying the
/// view-change quorum it collected. Receivers deterministically recompute
/// the set of re-proposals from `vcs` (see `compute_new_view_proposals`).
#[derive(Debug, Clone, PartialEq)]
pub struct NewViewMsg<P> {
    /// The view being started.
    pub view: ViewNr,
    /// The quorum of view-change messages justifying it.
    pub vcs: Vec<ViewChangeMsg<P>>,
}

impl<P: Payload> WireSize for NewViewMsg<P> {
    fn wire_size(&self) -> usize {
        HEADER_BYTES + self.vcs.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

/// Messages exchanged between the replicas of one PBFT group.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg<P> {
    /// Leader proposal of a batch at `(view, seq)`.
    PrePrepare {
        /// Proposal view.
        view: ViewNr,
        /// Instance number.
        seq: SeqNr,
        /// Proposed batch (possibly empty = no-op). Shared via [`Arc`] so
        /// the leader's broadcast and log entry reference one allocation
        /// instead of cloning the payloads per recipient.
        batch: Arc<Vec<P>>,
    },
    /// Follower echo of a proposal digest.
    Prepare {
        /// Vote view.
        view: ViewNr,
        /// Instance number.
        seq: SeqNr,
        /// Batch digest being voted for.
        digest: Digest,
    },
    /// Second-phase vote: the sender has a prepared certificate.
    Commit {
        /// Vote view.
        view: ViewNr,
        /// Instance number.
        seq: SeqNr,
        /// Batch digest being committed.
        digest: Digest,
    },
    /// View-change vote.
    ViewChange(ViewChangeMsg<P>),
    /// New-view announcement.
    NewView(NewViewMsg<P>),
}

impl<P: Payload> WireSize for Msg<P> {
    fn wire_size(&self) -> usize {
        match self {
            Msg::PrePrepare { batch, .. } => {
                HEADER_BYTES
                    + 16
                    + batch.iter().map(WireSize::wire_size).sum::<usize>()
                    + mac_vector_bytes(4)
            }
            Msg::Prepare { .. } | Msg::Commit { .. } => {
                HEADER_BYTES + 16 + DIGEST_BYTES + mac_vector_bytes(4)
            }
            Msg::ViewChange(vc) => vc.wire_size(),
            Msg::NewView(nv) => nv.wire_size(),
        }
    }

    fn trace_kind(&self) -> &'static str {
        "consensus"
    }

    fn trace_reqs(&self, visit: &mut dyn FnMut(u64)) {
        // Only the leader's proposal carries request payloads; votes and
        // view-change traffic are digest-only (per-request propose→commit
        // time is attributed through the consensus spans instead).
        if let Msg::PrePrepare { batch, .. } = self {
            for p in batch.iter() {
                p.trace_reqs(visit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TestPayload;

    #[test]
    fn preprepare_size_includes_batch() {
        let small: Msg<TestPayload> = Msg::PrePrepare {
            view: ViewNr(0),
            seq: SeqNr(1),
            batch: Arc::new(vec![TestPayload(1)]),
        };
        let big: Msg<TestPayload> = Msg::PrePrepare {
            view: ViewNr(0),
            seq: SeqNr(1),
            batch: Arc::new(vec![TestPayload(1); 10]),
        };
        assert!(big.wire_size() > small.wire_size());
    }

    #[test]
    fn preprepare_clone_shares_the_batch() {
        let msg: Msg<TestPayload> = Msg::PrePrepare {
            view: ViewNr(0),
            seq: SeqNr(1),
            batch: Arc::new(vec![TestPayload(1); 64]),
        };
        let copy = msg.clone();
        let (Msg::PrePrepare { batch: a, .. }, Msg::PrePrepare { batch: b, .. }) = (&msg, &copy)
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b), "broadcast clones must not copy payloads");
    }

    #[test]
    fn votes_are_fixed_size() {
        let p: Msg<TestPayload> =
            Msg::Prepare { view: ViewNr(0), seq: SeqNr(1), digest: Digest::ZERO };
        let c: Msg<TestPayload> =
            Msg::Commit { view: ViewNr(0), seq: SeqNr(1), digest: Digest::ZERO };
        assert_eq!(p.wire_size(), c.wire_size());
    }

    #[test]
    fn view_change_size_includes_certs_and_signature() {
        let empty: Msg<TestPayload> = Msg::ViewChange(ViewChangeMsg {
            new_view: ViewNr(1),
            h: SeqNr(0),
            prepared: vec![],
            sender: 2,
        });
        let full: Msg<TestPayload> = Msg::ViewChange(ViewChangeMsg {
            new_view: ViewNr(1),
            h: SeqNr(0),
            prepared: vec![PreparedCert {
                seq: SeqNr(1),
                view: ViewNr(0),
                digest: Digest::ZERO,
                batch: Arc::new(vec![TestPayload(9)]),
            }],
            sender: 2,
        });
        assert!(full.wire_size() > empty.wire_size());
        assert!(empty.wire_size() >= spider_types::wire::SIG_BYTES);
    }
}
