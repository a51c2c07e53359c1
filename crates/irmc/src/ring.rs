//! The runs a sender endpoint retains, kept in position order in a ring.
//!
//! A sender retains every run it submitted until the window moves past
//! it, and runs come and go in position order: a new run is almost always
//! the highest, and the window drops the lowest. A `BTreeMap` keyed by
//! first position splits and frees leaves as they do; [`RunRing`] keeps
//! the same map in a `VecDeque` of `(first, run)` pairs sorted by `first`,
//! found by binary search, whose storage outlives the runs in it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::collections::VecDeque;

/// A map from first position to `V`, with `BTreeMap`'s semantics for what
/// the sender uses of it: inserting an equal key replaces its value,
/// iteration is in ascending key order, and `retain` keeps what its
/// predicate keeps.
#[derive(Debug)]
pub(crate) struct RunRing<V> {
    runs: VecDeque<(u64, V)>,
}

impl<V> Default for RunRing<V> {
    fn default() -> Self {
        RunRing { runs: VecDeque::new() }
    }
}

impl<V> RunRing<V> {
    /// Where `first` is, or where it would go.
    fn search(&self, first: u64) -> Result<usize, usize> {
        self.runs.binary_search_by_key(&first, |&(p, _)| p)
    }

    /// Inserts `run` at `first`, replacing a run already there.
    pub(crate) fn insert(&mut self, first: u64, run: V) {
        match self.search(first) {
            Ok(i) => {
                if let Some(slot) = self.runs.get_mut(i) {
                    slot.1 = run;
                }
            }
            // The common case, a run above every retained one, is a push.
            Err(i) => self.runs.insert(i, (first, run)),
        }
    }

    /// The run at `first`.
    pub(crate) fn get(&self, first: u64) -> Option<&V> {
        self.search(first).ok().and_then(|i| self.runs.get(i)).map(|(_, run)| run)
    }

    /// The run at `first`, mutably.
    pub(crate) fn get_mut(&mut self, first: u64) -> Option<&mut V> {
        let i = self.search(first).ok()?;
        self.runs.get_mut(i).map(|(_, run)| run)
    }

    /// The run with the highest first position at or below `p` — the one
    /// that holds `p`, if any does.
    pub(crate) fn at_or_below(&self, p: u64) -> Option<(u64, &V)> {
        let end = self.search(p).map_or_else(|i| i, |i| i + 1);
        end.checked_sub(1).and_then(|i| self.runs.get(i)).map(|(first, run)| (*first, run))
    }

    /// Keeps the runs `keep` holds to, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64, &V) -> bool) {
        self.runs.retain(|(first, run)| keep(*first, run));
    }

    /// The runs in ascending order of first position.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = (u64, &V)> {
        self.runs.iter().map(|(first, run)| (*first, run))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    proptest! {
        /// Every operation the sender uses gives what a `BTreeMap` gives,
        /// and both hold the same entries in the same order throughout.
        /// Keys come from a small range, so repeated and out-of-order
        /// inserts are common.
        #[test]
        fn the_ring_is_a_btreemap(
            ops in prop::collection::vec((0u8..9, 0u64..45, any::<u32>()), 0..200),
        ) {
            let (mut ring, mut model) = (RunRing::default(), BTreeMap::new());
            for (op, k, v) in ops {
                match op {
                    0..=3 => {
                        ring.insert(k, v);
                        model.insert(k, v);
                    }
                    // What the window's gc keeps (a suffix), or a set that
                    // is not one.
                    4 => {
                        let keep = |p: u64, v: &u32| if k % 2 == 0 { p >= k } else { v % 2 == 1 };
                        ring.retain(keep);
                        model.retain(|&p, v| keep(p, v));
                    }
                    5 => prop_assert_eq!(ring.get(k), model.get(&k)),
                    6 => {
                        let (a, b) = (ring.get_mut(k), model.get_mut(&k));
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(a), Some(b)) = (a, b) {
                            (*a, *b) = (v, v);
                        }
                    }
                    _ => {
                        let holding = model.range(..=k).next_back().map(|(&p, v)| (p, v));
                        prop_assert_eq!(ring.at_or_below(k), holding);
                    }
                }
                prop_assert!(ring.iter().eq(model.iter().map(|(&p, v)| (p, v))));
                let last = model.iter().next_back().map(|(&p, v)| (p, v));
                prop_assert_eq!(ring.iter().next_back(), last);
                prop_assert_eq!(ring.is_empty(), model.is_empty());
            }
        }
    }

    #[test]
    fn the_ring_keeps_its_storage_as_runs_come_and_go() {
        let mut ring = RunRing::default();
        for first in 0..64u64 {
            ring.insert(first, ());
        }
        let capacity = ring.runs.capacity();
        for first in 64..1024u64 {
            ring.retain(|p, _| p + 64 > first);
            ring.insert(first, ());
        }
        assert_eq!(ring.runs.capacity(), capacity, "no run since the first 64 allocated");
    }
}
