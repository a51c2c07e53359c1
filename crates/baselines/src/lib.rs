//! Comparator systems for the Spider evaluation (§2.2, §5).
//!
//! The paper evaluates Spider against three alternative architectures,
//! all reproduced here on the same simulator, application interface, and
//! cost model:
//!
//! * **BFT** — the traditional approach (Fig 1a): a single PBFT group of
//!   `3f + 1` replicas, one per region. The entire multi-phase protocol
//!   runs over wide-area links; response times depend heavily on the
//!   leader's region.
//! * **BFT-WV** — BFT extended with WHEAT-style weighted voting
//!   (`3f + 1 + Δ` replicas, higher weights at well-connected sites), the
//!   comparison system of the paper's adaptability experiment (Fig 10).
//! * **HFT** — a Steward-style hierarchical architecture (Fig 1b): each
//!   region hosts a cluster of `3f + 1` replicas that speaks with one
//!   voice via threshold signatures; a crash-tolerant protocol runs
//!   between sites (leader site proposes, majority of sites accept).
//!
//! All three serve the same [`spider::Application`]s and are driven by the
//! same client/workload machinery, so latency comparisons against Spider
//! measure protocol structure, not implementation accidents.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

pub mod bft;
pub mod client;
pub mod messages;
mod replica;
pub mod steward;

pub use bft::{BftDeployment, BftReplica};
pub use client::BaselineClient;
pub use messages::BaseMsg;
pub use steward::{StewardDeployment, StewardReplica};
