//! Inter-regional message channels (IRMC) — §3.2 and appendix §A.8/§A.9.
//!
//! An IRMC forwards messages from a *group* of sender replicas in one
//! region to a *group* of receiver replicas in another. It is the only
//! abstraction Spider uses over wide-area links, and it provides:
//!
//! * **Subchannels** with FIFO semantics and unique positions — distributed
//!   bounded queues (one per client for request channels; a single one for
//!   commit channels).
//! * **BFT send semantics**: a message is delivered only after `fs + 1`
//!   senders submitted identical content for the same subchannel position,
//!   so at least one *correct* sender vouches for it.
//! * **Window-based flow control**: each subchannel has a capacity; windows
//!   move only forward, receivers shift them as they consume (or senders
//!   request shifts), and a receiver that falls behind gets a
//!   [`ReceiveResult::TooOld`] telling it to fetch a checkpoint instead.
//! * **Authentication**: channel-internal messages carry (simulated) RSA
//!   signatures; invalid ones are discarded.
//!
//! Two implementations share one interface and one frame family
//! ([`ChannelMsg`]), selected by [`ChannelMode`]:
//!
//! * [`ChannelMode::ReliableCast`] (**IRMC-RC**, Fig 18): every sender
//!   submits directly to every receiver; receivers individually collect
//!   `fs + 1` matching submissions. With `dedup: true` the redundant
//!   copies of a range are *digest-only*: a deterministically rotated
//!   primary carrier ships the one signed content copy while the other
//!   senders confirm the range with a MAC-authenticated
//!   [`ChannelMsg::Vouch`] — content crosses the wire and gets hashed at
//!   most once per range on the happy path, and a receiver whose carrier
//!   stalls refetches the content from any voucher.
//! * [`ChannelMode::SenderCast`] (**IRMC-SC**, Figs 19–20): senders
//!   exchange signature shares inside their region; one *collector* per
//!   receiver assembles a [`ChannelMsg::Certificate`] and ships a single
//!   WAN message. With `overlap: true` (§A.9) the collector ships range
//!   content as soon as it is submitted and follows up with a compact
//!   shares-only certificate.
//!
//! Both certify a contiguous slot run ([`SenderEndpoint::send_batch`])
//! with **one** RSA signature over the Merkle root of the per-slot
//! digests ([`spider_crypto::merkle`]), amortizing the dominant per-slot
//! CPU cost of a loaded commit channel. A slot is a run of one: the same
//! frames, handlers and endpoint state carry it, priced and weighed as
//! the paper's per-slot protocol (see [`ChannelMsg`]'s module docs).
//!
//! Endpoints are sans-IO state machines: methods emit [`Action`]s
//! (messages to peers, CPU charges, readiness events, timer requests) into
//! a caller-provided [`Sink`](spider_types::Sink), and the host performs
//! them — from a `Vec` afterwards, or from a closure as they are emitted.
//!
//! # Examples
//!
//! Passing a batch across a 4-sender/3-receiver dedup channel (the shape
//! of a commit channel with `fa = 1`, `fe = 1`):
//!
//! ```
//! use spider_irmc::{
//!     Action, ChannelMode, IrmcConfig, ReceiveResult, ReceiverEndpoint, ReceiverMsg,
//!     SenderEndpoint,
//! };
//! use spider_crypto::{Digest, Digestible, Keyring};
//! use spider_types::{Position, WireSize};
//!
//! #[derive(Debug, Clone, PartialEq)]
//! struct Op(u64);
//! impl WireSize for Op {
//!     fn wire_size(&self) -> usize { 64 }
//! }
//! impl Digestible for Op {
//!     fn digest(&self) -> Digest { Digest::builder().u64(self.0).finish() }
//! }
//!
//! let cfg = IrmcConfig::new(ChannelMode::ReliableCast { dedup: true }, 4, 1, 3, 1, 16);
//! let ring = Keyring::new(1);
//! let mut senders: Vec<SenderEndpoint<Op>> =
//!     (0..4).map(|i| SenderEndpoint::new(cfg.clone(), i, ring.clone())).collect();
//! let mut receiver: ReceiverEndpoint<Op> = ReceiverEndpoint::new(cfg, 0, ring);
//!
//! // Every sender submits the same two-slot batch for subchannel 0.
//! // Under dedup, one rotated carrier ships the signed content; the
//! // other three send digest-only vouches. A closure sink hands each
//! // frame for receiver 0 over as the sender emits it.
//! let mut follow_up = Vec::new();
//! for (i, s) in senders.iter_mut().enumerate() {
//!     s.send_batch(0, Position(1), vec![Op(42), Op(43)], &mut |a| {
//!         if let Action::ToReceiver { to: 0, msg } = a {
//!             let _ = receiver.on_sender_message(i, msg, &mut follow_up);
//!         }
//!     });
//! }
//! // fs + 1 = 2 matching statements (content + vouch) deliver the batch,
//! // with no content fetched from anyone.
//! assert_eq!(receiver.try_receive(0, Position(1)), ReceiveResult::Ready(Op(42)));
//! assert_eq!(receiver.try_receive(0, Position(2)).into_payload(), Some(Op(43)));
//! let fetch = |a: &Action<Op>| {
//!     matches!(a, Action::ToSender { msg: ReceiverMsg::FetchRange { .. }, .. })
//! };
//! assert!(!follow_up.iter().any(fetch));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

mod config;
mod error;
mod messages;
mod receiver;
mod ring;
mod sender;
mod window;

#[cfg(test)]
pub(crate) mod tests_support {
    //! Shared fixtures for in-crate tests.
    use spider_crypto::{Digest, Digestible};
    use spider_types::WireSize;

    /// A small content blob with real digests.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Blob(pub Vec<u8>);

    impl Blob {
        pub fn new(data: &[u8]) -> Self {
            Blob(data.to_vec())
        }
    }

    /// The slots `first..first + n`, each naming its position.
    pub fn blobs(first: u64, n: u64) -> Vec<Blob> {
        (first..first + n).map(|i| Blob::new(format!("m{i}").as_bytes())).collect()
    }

    impl WireSize for Blob {
        fn wire_size(&self) -> usize {
            spider_types::wire::HEADER_BYTES + self.0.len()
        }
    }

    impl Digestible for Blob {
        fn digest(&self) -> Digest {
            Digest::of_bytes(&self.0)
        }
    }
}

pub use config::{ChannelMode, IrmcConfig, Variant, MAX_RANGE};
pub use error::IrmcError;
pub use messages::{range_digest, ChannelMsg, ReceiverMsg, Run};
pub use receiver::{ReceiveResult, ReceiverEndpoint, COLLECTOR_TIMEOUT, REFETCH_DELAY};
pub use sender::{SendStatus, SenderEndpoint, RC_RECAST_TICKS};
pub use window::Window;

use spider_crypto::Digestible;
use spider_types::{SimTime, WireSize};

/// Content that can travel through an IRMC.
pub trait Content: Digestible + Clone + PartialEq + std::fmt::Debug + WireSize + 'static {}
impl<T: Digestible + Clone + PartialEq + std::fmt::Debug + WireSize + 'static> Content for T {}

/// Subchannel identifier. Request channels use one subchannel per client
/// (the client id); commit channels use subchannel 0.
pub type Subchannel = u64;

/// Cadence at which hosts call [`SenderEndpoint::tick`] while
/// [`SenderEndpoint::wants_tick`] (asked after every call on the sender,
/// never worked out by the host): the IRMC-SC progress heartbeat and the
/// unit [`RC_RECAST_TICKS`] counts in.
pub const TICK_INTERVAL: SimTime = SimTime::from_millis(20);

/// Charge label of the RC recast path: a sender re-shipping unacked
/// ranges (e.g. after a partition heal swallowed the one-shot casts).
/// Hosts can match [`Action::Charge`]'s label against this to surface
/// liveness milestones in traces.
pub const OP_RECAST: &str = "recast";

/// Effects produced by endpoint calls, applied by the host.
#[derive(Debug, Clone, PartialEq)]
pub enum Action<M> {
    /// Transmit a channel message to receiver-side endpoint `to`.
    ToReceiver {
        /// Receiver index within the receiver group.
        to: usize,
        /// The message.
        msg: ChannelMsg<M>,
    },
    /// Transmit a channel message to sender-side endpoint `to`.
    ToSender {
        /// Sender index within the sender group.
        to: usize,
        /// The message.
        msg: ReceiverMsg,
    },
    /// Intra-sender-group message (IRMC-SC signature shares).
    ToPeerSender {
        /// Sender index within the sender group.
        to: usize,
        /// The message.
        msg: ChannelMsg<M>,
    },
    /// Charge CPU time to the hosting node. The second field names the
    /// operation the cost models (e.g. `"range_sign"`, `"window_mac"`)
    /// so hosts can attribute node busy-time for flamegraphs.
    Charge(SimTime, &'static str),
    /// A message became available: `try_receive(sc, p)` will now succeed
    /// (receiver side only).
    Ready {
        /// Subchannel.
        sc: Subchannel,
        /// Position.
        p: spider_types::Position,
    },
    /// The subchannel window moved; positions below `start` are gone.
    WindowMoved {
        /// Subchannel.
        sc: Subchannel,
        /// New window start.
        start: spider_types::Position,
    },
    /// A previously blocked `send` for this position was transmitted after
    /// a window shift (sender side only).
    Unblocked {
        /// Subchannel.
        sc: Subchannel,
        /// Position.
        p: spider_types::Position,
    },
    /// Arm (or re-arm) a host timer for collector supervision (IRMC-SC
    /// receiver side). `token` is opaque to the endpoint.
    SetTimer {
        /// Opaque token; feed back via `on_timer`.
        token: u64,
        /// Delay from now.
        delay: SimTime,
    },
}
