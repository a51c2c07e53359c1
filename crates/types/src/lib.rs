//! Shared vocabulary for the Spider BFT replication workspace.
//!
//! This crate defines the identifier newtypes, the simulated-time type, the
//! wire-size model, and a handful of small helpers that every other crate in
//! the workspace builds on. It deliberately contains no protocol logic: the
//! dependency arrows all point *into* this crate.
//!
//! # Examples
//!
//! ```
//! use spider_types::{SimTime, RegionId, ZoneId};
//!
//! let t = SimTime::from_millis(3) + SimTime::from_micros(500);
//! assert_eq!(t.as_micros(), 3_500);
//!
//! let zone = ZoneId::new(RegionId(0), 2);
//! assert_eq!(zone.region(), RegionId(0));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]
#![cfg_attr(not(test), warn(clippy::match_wildcard_for_single_variants))]
#![warn(missing_docs)]

pub mod ids;
pub mod time;
pub mod wire;

pub use ids::{ClientId, GroupId, NodeId, Position, RegionId, ReplicaIdx, SeqNr, ViewNr, ZoneId};
pub use time::SimTime;
pub use wire::WireSize;

/// The kind of consistency a read request asks for.
///
/// Spider distinguishes weakly consistent reads (answered locally by the
/// client's execution group, §3.3) from strongly consistent reads (ordered
/// by the agreement group like writes, but executed only at the designated
/// group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ReadConsistency {
    /// Served directly by the local execution group; may return stale data.
    Weak,
    /// Ordered through the agreement group; linearizable.
    Strong,
}

impl std::fmt::Display for ReadConsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadConsistency::Weak => write!(f, "weak"),
            ReadConsistency::Strong => write!(f, "strong"),
        }
    }
}

/// Classification of an operation submitted by a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum OpKind {
    /// Potentially state-modifying; must be applied by all execution groups.
    Write,
    /// Strongly consistent read; ordered, but executed only at one group.
    StrongRead,
    /// Weakly consistent read; never ordered.
    WeakRead,
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpKind::Write => write!(f, "write"),
            OpKind::StrongRead => write!(f, "strong-read"),
            OpKind::WeakRead => write!(f, "weak-read"),
        }
    }
}
