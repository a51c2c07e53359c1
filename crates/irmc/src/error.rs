//! Typed rejection reasons for incoming channel frames.
//!
//! IRMC endpoints sit on the trust boundary between regions: every frame
//! they handle may come from a faulty node, so the handlers must be total
//! — no input may panic them — and rejections should be observable rather
//! than silent `return`s. Handlers return `Result<(), IrmcError>`; callers
//! treat `Err` as "frame discarded" (the protocol tolerates it by design)
//! but can log or count the reason.

use crate::Subchannel;
use spider_types::Position;

/// Why an incoming channel frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrmcError {
    /// The claimed peer index is outside the configured group.
    UnknownEndpoint {
        /// The out-of-range index.
        index: usize,
    },
    /// Signature (or share-quorum) verification failed.
    BadSignature {
        /// Subchannel of the offending frame.
        sc: Subchannel,
        /// First position the signature claimed to cover.
        p: Position,
    },
    /// Run bounds are malformed: zero slots, more than the window
    /// capacity, or inline content of another length than the frame
    /// claims (correct endpoints never emit any of these).
    MalformedRange {
        /// Subchannel of the offending frame.
        sc: Subchannel,
        /// Claimed first position.
        first: Position,
        /// Claimed slot count.
        count: u64,
    },
    /// The frame belongs to the other IRMC variant (RC vs SC): the peer
    /// disagrees about the channel configuration.
    WrongVariant,
    /// A group-internal frame (e.g. a signature share) arrived at an
    /// endpoint outside that group.
    UnexpectedFrame,
    /// A content copy for a dedup range hashed to a Merkle root that
    /// contradicts the root the vouch quorum agreed on: the shipping
    /// sender is faulty (tampered or equivocating content). The frame is
    /// discarded; the receiver keeps (or resumes) fetching from other
    /// vouchers.
    VouchMismatch {
        /// Subchannel of the offending range.
        sc: Subchannel,
        /// First position of the offending range.
        first: Position,
    },
    /// The primary carrier of a vouched range failed to deliver content
    /// before the supervision timeout; the receiver has fallen back to
    /// requesting the content from another voucher. Informational: the
    /// protocol recovers on its own, but callers may count occurrences.
    CarrierTimeout {
        /// Subchannel of the stalled range.
        sc: Subchannel,
        /// First position of the stalled range.
        first: Position,
    },
    /// The position lies absurdly far above the flow-control window; a
    /// correct peer is window-limited, so this is a memory-exhaustion
    /// attempt. (Positions *below* the window are late duplicates and are
    /// dropped silently — they are normal under retransmission.)
    OutOfWindow {
        /// Subchannel of the offending frame.
        sc: Subchannel,
        /// The rejected position.
        p: Position,
    },
}

impl std::fmt::Display for IrmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrmcError::UnknownEndpoint { index } => {
                write!(f, "unknown peer endpoint index {index}")
            }
            IrmcError::BadSignature { sc, p } => {
                write!(f, "signature verification failed (sc {sc}, position {})", p.0)
            }
            IrmcError::MalformedRange { sc, first, count } => {
                write!(f, "malformed range (sc {sc}, first {}, count {count})", first.0)
            }
            IrmcError::WrongVariant => write!(f, "frame belongs to the other IRMC variant"),
            IrmcError::UnexpectedFrame => write!(f, "group-internal frame from outside the group"),
            IrmcError::VouchMismatch { sc, first } => {
                write!(f, "content contradicts vouched root (sc {sc}, first {})", first.0)
            }
            IrmcError::CarrierTimeout { sc, first } => {
                write!(f, "carrier timed out, refetching (sc {sc}, first {})", first.0)
            }
            IrmcError::OutOfWindow { sc, p } => {
                write!(f, "position far above window (sc {sc}, position {})", p.0)
            }
        }
    }
}

impl std::error::Error for IrmcError {}
