//! Cryptographic substrate for the Spider reproduction.
//!
//! The paper authenticates client/replica messages with HMAC-SHA-256 and
//! protects IRMC-internal messages with 1024-bit RSA signatures (§5). This
//! crate provides:
//!
//! * A from-scratch [`sha256`] implementation (FIPS 180-4, validated against
//!   the NIST test vectors; a portable kernel and a SHA-NI kernel chosen
//!   per call from the CPU's reported features; [`sha256::Domain`] hashes
//!   under a fixed tag block for the price of the message's own blocks)
//!   and [`hmac`] (RFC 2104,
//!   validated against the RFC 4231 vectors; [`hmac::HmacKey`] keeps a
//!   key's schedule for reuse).
//! * [`Keyring`]-based **simulation-grade signatures**: deterministic,
//!   verifiable tags derived from per-identity secrets. They preserve the
//!   message-flow semantics of digital signatures (who can produce what,
//!   what verifies against what) while staying cheap enough for
//!   million-message simulations. Unforgeability against real-world
//!   adversaries is *not* a goal — Byzantine behaviour in this workspace is
//!   injected via explicit fault hooks, never via forged bytes.
//! * A [`CostModel`] charging simulated CPU time per operation, calibrated
//!   to RSA-1024 / HMAC-SHA-256 on small cloud VMs, which drives the
//!   latency, throughput, and CPU-usage results (Figs 9b–9d).
//! * [`threshold`] signatures with the `f+1`-of-`n` combine semantics the
//!   Steward baseline needs (Shoup-style interface).
//! * [`merkle`] trees over slot digests, used by the IRMC's multi-slot
//!   range certification to amortize one RSA signature over a contiguous
//!   slot range (§A.9 direction).
//!
//! # Examples
//!
//! ```
//! use spider_crypto::{Digest, Keyring, KeyId};
//!
//! let ring = Keyring::new(42);
//! let digest = Digest::of_bytes(b"hello");
//! let sig = ring.sign(KeyId(3), &digest);
//! assert!(ring.verify(KeyId(3), &digest, &sig));
//! assert!(!ring.verify(KeyId(4), &digest, &sig), "wrong signer");
//! ```

// `deny`, not `forbid` like every other crate: `sha256::compress_blocks`
// carries the workspace's one `#[expect(unsafe_code)]`, for the call into
// its `#[target_feature]` SHA-NI kernel.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

pub mod cost;
pub mod digest;
pub mod hmac;
pub mod keyring;
pub mod merkle;
pub mod sha256;
pub mod threshold;

pub use cost::CostModel;
pub use digest::{Digest, DigestBuilder, Digestible, Hashed};
pub use keyring::{KeyId, Keyring, Mac, Signature};
pub use merkle::{merkle_root, RootCache};
pub use threshold::{SigShare, ThresholdKeyring, ThresholdSig};
