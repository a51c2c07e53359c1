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

pub use ids::{ClientId, GroupId, NodeId, Position, RegionId, SeqNr, ViewNr, ZoneId};
pub use time::SimTime;
pub use wire::WireSize;

/// Where a sans-IO machine puts what it emits.
///
/// The PBFT replica, the IRMC endpoints and the checkpoint component take
/// `out: &mut dyn Sink<Entry>` and call [`Sink::emit`] once per entry —
/// frames, CPU charges, timer requests and the events their host reacts
/// to — in the order the protocol sequences them. Two implementations
/// cover every caller:
///
/// - a `Vec<T>` collects the entries, for tests and for callers that look
///   at the whole list afterwards;
/// - a closure `FnMut(T)` acts on each entry as it is emitted, which is
///   how a simulated node hosts a machine without an intermediate list.
///
/// ```
/// use spider_types::Sink;
///
/// fn count_to(n: u32, out: &mut dyn Sink<u32>) {
///     for i in 1..=n {
///         out.emit(i);
///     }
/// }
///
/// let mut list = Vec::new();
/// count_to(3, &mut list);
/// assert_eq!(list, [1, 2, 3]);
///
/// let mut sum = 0;
/// count_to(3, &mut |i| sum += i);
/// assert_eq!(sum, 6);
/// ```
pub trait Sink<T> {
    /// Takes one entry.
    fn emit(&mut self, entry: T);
}

impl<T> Sink<T> for Vec<T> {
    fn emit(&mut self, entry: T) {
        self.push(entry);
    }
}

impl<T, F: FnMut(T)> Sink<T> for F {
    fn emit(&mut self, entry: T) {
        self(entry);
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
