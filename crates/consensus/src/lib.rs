//! PBFT consensus: the agreement black-box of the Spider architecture.
//!
//! The paper treats consensus as a replaceable black-box with a small
//! interface (`order`, `deliver`, `gc` — appendix Fig 12) and four required
//! properties: A-Safety, A-Liveness, A-Validity, and A-Order (§A.4.2). This
//! crate implements that black-box with PBFT [Castro & Liskov, OSDI '99]:
//!
//! * three-phase normal operation (pre-prepare / prepare / commit) with
//!   request batching and pipelining — the leader's [`Batcher`] closes
//!   batches on size, byte, or linger-delay caps and can adapt its batch
//!   size to the measured arrival rate (see the [`batcher`](Batcher)
//!   docs), while up to `PbftConfig::pipeline_depth` instances run concurrently,
//! * view changes with prepared-certificate carryover, so a faulty leader
//!   is replaced without losing agreed requests,
//! * external garbage collection: the host's checkpoint component calls
//!   [`Pbft::gc`], matching the paper's design where checkpointing lives
//!   outside the consensus black-box,
//! * **weighted voting**: quorums are weight sums, enabling the BFT-WV
//!   baseline (WHEAT-style weights) with the exact same code path.
//!
//! The implementation is *sans-IO*: a [`Pbft`] consumes `(now, input)` and
//! emits [`Output`]s (sends, deliveries, timer ops, CPU charges) into a
//! caller-provided [`Sink`](spider_types::Sink) — a `Vec` that collects
//! them, or a closure that acts on each one. Hosts decide how outputs
//! reach the network — in this workspace, via `spider-sim` actors.
//!
//! # Authentication
//!
//! Replica-to-replica messages are authenticated with HMAC MAC vectors in
//! the paper; the CPU and byte costs of those MACs are charged via
//! [`Output::Charge`] and the message [`WireSize`]s. Validating *client*
//! authentication is the host's job before ordering a payload
//! (A-Validity) — in Spider the request channel has already enforced that
//! `fe + 1` execution replicas vouch for each request.
//!
//! # Examples
//!
//! Driving a four-replica group to order one payload (see
//! `tests/cluster.rs` for the full in-memory harness):
//!
//! ```
//! use spider_consensus::{Pbft, PbftConfig, Input, Output, TestPayload};
//! use spider_types::SimTime;
//!
//! let cfg = PbftConfig::new(1); // f = 1 -> n = 4
//! let mut replicas: Vec<Pbft<TestPayload>> =
//!     (0..4).map(|i| Pbft::new(cfg.clone(), i)).collect();
//! let mut out = Vec::new();
//! let now = SimTime::ZERO;
//! for r in &mut replicas {
//!     r.handle(now, Input::Order(TestPayload(7)), &mut out);
//! }
//! // The leader (replica 0) has broadcast a PrePrepare.
//! assert!(out.iter().any(|o| matches!(o, Output::Send { .. })));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

mod batcher;
mod config;
mod messages;
mod replica;

pub use batcher::{Batcher, BatcherConfig};
pub use config::{PbftConfig, VIEW_CHANGE_TIMEOUT};
pub use messages::{Msg, NewViewMsg, PreparedCert, ViewChangeMsg};
pub use replica::{Input, Output, Pbft, TimerToken};

use spider_crypto::{Digest, Digestible};
use spider_types::WireSize;

/// A unit of content the agreement black-box can order.
///
/// Payloads must be cheaply cloneable (wrap big content in `Arc`/`Bytes`),
/// comparable, sized for the wire, and hashable to a content [`Digest`]
/// (via [`Digestible`]). Implemented automatically for any type with those
/// capabilities.
pub trait Payload: Digestible + Clone + PartialEq + std::fmt::Debug + WireSize + 'static {}

impl<T: Digestible + Clone + PartialEq + std::fmt::Debug + WireSize + 'static> Payload for T {}

/// Minimal payload for tests and examples: a `u64` op identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TestPayload(pub u64);

impl WireSize for TestPayload {
    fn wire_size(&self) -> usize {
        spider_types::wire::HEADER_BYTES + 8
    }
}

impl Digestible for TestPayload {
    fn digest(&self) -> Digest {
        Digest::builder().str("test-payload").u64(self.0).finish()
    }
}

/// Computes the digest of a batch of payloads (order-sensitive).
pub fn batch_digest<P: Payload>(batch: &[P]) -> Digest {
    let mut b = Digest::builder().str("batch").u64(batch.len() as u64);
    for p in batch {
        b = b.digest(&p.digest());
    }
    b.finish()
}
