//! Flow-control windows.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use serde::{Deserialize, Serialize};
use spider_types::Position;

/// A subchannel flow-control window: the contiguous range of positions a
/// party may currently use, `[start, start + capacity - 1]` inclusive.
///
/// Windows only ever move forward (§3.2); [`Window::advance_to`] ignores
/// regressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    start: Position,
    capacity: u64,
}

impl Window {
    /// Creates a window starting at position 1 (the paper's convention).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity >= 1, "window capacity must be at least 1");
        Window { start: Position(1), capacity }
    }

    /// Lower bound (inclusive).
    pub fn start(&self) -> Position {
        self.start
    }

    /// Upper bound (inclusive).
    pub fn end(&self) -> Position {
        Position(self.start.0 + self.capacity - 1)
    }

    /// Window size.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Whether `p` falls inside the window.
    pub fn contains(&self, p: Position) -> bool {
        p >= self.start && p <= self.end()
    }

    /// Whether `p` is below the window (too old to use).
    pub fn is_below(&self, p: Position) -> bool {
        p < self.start
    }

    /// Whether `p` is above the window (must wait for a shift).
    pub fn is_above(&self, p: Position) -> bool {
        p > self.end()
    }

    /// Whether `p` lies a whole window length or more above the window: a
    /// correct peer is window-limited, so nothing legitimate starts there
    /// (the endpoints' memory guard).
    pub(crate) fn is_far_above(&self, p: Position) -> bool {
        p.0 >= self.end().0 + self.capacity
    }

    /// Moves the start forward to `p`; returns `true` if the window moved.
    /// Calls with `p <= start` are ignored (windows never regress).
    pub fn advance_to(&mut self, p: Position) -> bool {
        if p > self.start {
            self.start = p;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_window_starts_at_one() {
        let w = Window::new(10);
        assert_eq!(w.start(), Position(1));
        assert_eq!(w.end(), Position(10));
        assert!(w.contains(Position(1)));
        assert!(w.contains(Position(10)));
        assert!(w.is_above(Position(11)));
        assert!(w.is_below(Position(0)));
    }

    #[test]
    fn advance_is_monotonic() {
        let mut w = Window::new(5);
        assert!(w.advance_to(Position(4)));
        assert_eq!(w.start(), Position(4));
        assert_eq!(w.end(), Position(8));
        assert!(!w.advance_to(Position(3)), "regression ignored");
        assert_eq!(w.start(), Position(4));
        assert!(!w.advance_to(Position(4)), "same position is a no-op");
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = Window::new(0);
    }

    #[test]
    fn capacity_one_window_is_a_single_slot() {
        let mut w = Window::new(1);
        assert_eq!(w.start(), w.end());
        w.advance_to(Position(7));
        assert!(w.contains(Position(7)));
        assert!(!w.contains(Position(8)));
    }
}
