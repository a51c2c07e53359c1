//! Identifier newtypes used across the workspace.
//!
//! Each identifier is a thin newtype over an integer ([C-NEWTYPE]): the type
//! system keeps region indices, node indices, sequence numbers, and channel
//! positions from being mixed up, at zero runtime cost.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use serde::{Deserialize, Serialize};

/// A cloud region (e.g. Virginia, Oregon, Ireland, Tokyo).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct RegionId(pub u16);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An availability zone inside a region.
///
/// Zones are the fault domains Spider places the members of a replica group
/// into: distinct data centers of the same region, connected by
/// short-distance links (§3.1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ZoneId {
    region: RegionId,
    zone: u8,
}

impl ZoneId {
    /// Creates the `zone`-th availability zone of `region`.
    pub fn new(region: RegionId, zone: u8) -> Self {
        ZoneId { region, zone }
    }

    /// The region this zone belongs to.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The zone index within its region (0-based).
    pub fn zone(&self) -> u8 {
        self.zone
    }
}

impl std::fmt::Display for ZoneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-az{}", self.region, self.zone)
    }
}

/// A node in the simulated system: a replica or a client process.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A replica group (the agreement group or one of the execution groups).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct GroupId(pub u16);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A client identity.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An agreement sequence number (total order established by consensus).
///
/// Sequence numbers start at 1; 0 means "nothing delivered yet", matching
/// the paper's pseudocode where `sn` is initialized to 0 and the first
/// delivered sequence number is 1 (§A.4.2).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SeqNr(pub u64);

impl SeqNr {
    /// The sequence number after this one.
    #[must_use]
    pub fn next(self) -> SeqNr {
        SeqNr(self.0 + 1)
    }

    /// The sequence number before this one; saturates at zero.
    #[must_use]
    pub fn prev(self) -> SeqNr {
        SeqNr(self.0.saturating_sub(1))
    }
}

impl std::fmt::Display for SeqNr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A position within an IRMC subchannel (§3.2).
///
/// Positions identify slots of the distributed bounded queue an IRMC
/// subchannel represents. For request channels the position is the client's
/// request counter; for commit channels it is the agreement sequence number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Position(pub u64);

impl Position {
    /// The position after this one.
    #[must_use]
    pub fn next(self) -> Position {
        Position(self.0 + 1)
    }

    /// Offsets this position forward by `n` slots.
    #[must_use]
    pub fn offset(self, n: u64) -> Position {
        Position(self.0 + n)
    }
}

impl std::fmt::Display for Position {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A consensus view number (PBFT-style leader epoch).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ViewNr(pub u64);

impl ViewNr {
    /// The view after this one.
    #[must_use]
    pub fn next(self) -> ViewNr {
        ViewNr(self.0 + 1)
    }
}

impl std::fmt::Display for ViewNr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_nr_next_prev_roundtrip() {
        let s = SeqNr(41);
        assert_eq!(s.next(), SeqNr(42));
        assert_eq!(s.next().prev(), s);
        assert_eq!(SeqNr(0).prev(), SeqNr(0), "prev saturates at zero");
    }

    #[test]
    fn position_offset_accumulates() {
        assert_eq!(Position(10).offset(5), Position(15));
        assert_eq!(Position(10).next(), Position(11));
    }

    #[test]
    fn zone_id_accessors() {
        let z = ZoneId::new(RegionId(3), 1);
        assert_eq!(z.region(), RegionId(3));
        assert_eq!(z.zone(), 1);
        assert_eq!(z.to_string(), "r3-az1");
    }

    #[test]
    fn display_forms_are_compact_and_distinct() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(GroupId(2).to_string(), "g2");
        assert_eq!(ClientId(9).to_string(), "c9");
        assert_eq!(SeqNr(1).to_string(), "s1");
        assert_eq!(Position(4).to_string(), "@4");
        assert_eq!(ViewNr(0).to_string(), "v0");
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(SeqNr(1) < SeqNr(2));
        assert!(Position(1) < Position(2));
        assert!(ViewNr(1) < ViewNr(2));
    }
}
