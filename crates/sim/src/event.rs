//! The time-ordered event queue at the heart of the simulator.
//!
//! The heap orders 24-byte keys `(at, seq, node, slot)`; the payloads —
//! whole protocol messages, hundreds of bytes each — sit still in a slab
//! (`Vec<Option<EventKind<M>>>` with a free list) until their key pops, so
//! a sift moves a key and never a message. Keys order by time, then by
//! insertion sequence: same-instant events pop in the order they were
//! pushed, which is what makes a run reproducible.

use spider_types::{NodeId, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::actor::Timer;

/// What happens when an event fires.
pub(crate) enum EventKind<M> {
    /// A message arrives at a node.
    Deliver {
        /// Sender of the message.
        from: NodeId,
        /// Payload.
        msg: M,
    },
    /// A timer set by the node itself fires.
    Fire {
        /// The timer (id + user tag).
        timer: Timer,
    },
}

/// Heap entry. The derived order compares `(at, seq)` first and `seq` is
/// unique, so `node` and `slot` never decide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    node: NodeId,
    slot: u32,
}

/// Deterministic priority queue of simulation events.
pub(crate) struct EventQueue<M> {
    /// `BinaryHeap` is a max-heap; `Reverse` pops the earliest key first.
    heap: BinaryHeap<Reverse<Key>>,
    /// Payload of every queued key, at `Key::slot`.
    slots: Vec<Option<EventKind<M>>>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<u32>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), slots: Vec::new(), free: Vec::new(), next_seq: 0 }
    }

    /// Queues `kind` for `node` at `at`, behind everything already queued
    /// for that instant.
    pub fn push(&mut self, at: SimTime, node: NodeId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slots.push(Some(kind));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        self.heap.push(Reverse(Key { at, seq, node, slot }));
    }

    /// Takes the earliest event out of the queue; [`Self::peek`] tells
    /// when and where it was due.
    pub fn pop(&mut self) -> Option<EventKind<M>> {
        let Reverse(Key { slot, .. }) = self.heap.pop()?;
        let kind = self.slots[slot as usize].take().expect("a queued key owns its slot");
        self.free.push(slot);
        Some(kind)
    }

    /// Re-queues the earliest event for `at`, behind everything already
    /// queued for that instant — how a busy node's event waits for the
    /// node to free up. The event gets the key `pop` followed by `push`
    /// would give it (a fresh sequence number), but the heap's top entry
    /// is re-keyed where it sits: one sift-down, and the payload never
    /// leaves its slot.
    pub fn defer_top(&mut self, at: SimTime) {
        let Some(mut top) = self.heap.peek_mut() else {
            return;
        };
        top.0.at = at;
        top.0.seq = self.next_seq;
        self.next_seq += 1;
    }

    /// When the earliest event is due, and at which node.
    pub fn peek(&self) -> Option<(SimTime, NodeId)> {
        self.heap.peek().map(|Reverse(key)| (key.at, key.node))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg_of(kind: EventKind<u32>) -> u32 {
        match kind {
            EventKind::Deliver { msg, .. } => msg,
            EventKind::Fire { .. } => unreachable!("only deliveries are queued here"),
        }
    }

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let n = NodeId(0);
        q.push(SimTime::from_millis(5), n, EventKind::Deliver { from: n, msg: 1 });
        q.push(SimTime::from_millis(1), n, EventKind::Deliver { from: n, msg: 2 });
        q.push(SimTime::from_millis(5), n, EventKind::Deliver { from: n, msg: 3 });

        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(msg_of).collect();
        assert_eq!(order, vec![2, 1, 3], "time order, then insertion order");
    }

    #[test]
    fn popped_slots_are_reused_before_the_slab_grows() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let n = NodeId(0);
        for round in 0..10u32 {
            for i in 0..4u32 {
                let at = SimTime::from_millis(u64::from(round * 10 + (3 - i)));
                q.push(at, n, EventKind::Deliver { from: n, msg: round * 4 + i });
            }
            let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(msg_of).collect();
            let expected: Vec<u32> = (0..4).rev().map(|i| round * 4 + i).collect();
            assert_eq!(popped, expected, "a reused slot hands back its own payload");
        }
        assert_eq!(q.slots.len(), 4, "never more slots than events queued at once");
        assert_eq!(q.free.len(), 4);
        assert!(q.heap.is_empty());
    }

    #[test]
    fn a_requeued_event_goes_behind_its_instant_and_keeps_arrival_order() {
        // Three messages reach a busy node at t=1 in the order 1, 2, 3 and
        // one more is already queued for t=5, when the node frees up. The
        // world defers each event it finds on top to t=5, payload in place.
        let mut q: EventQueue<u32> = EventQueue::new();
        let n = NodeId(3);
        let (arrive, free_at) = (SimTime::from_millis(1), SimTime::from_millis(5));
        q.push(free_at, n, EventKind::Deliver { from: n, msg: 0 });
        for msg in 1..=3 {
            q.push(arrive, n, EventKind::Deliver { from: n, msg });
        }
        for _ in 0..3 {
            assert_eq!(q.peek(), Some((arrive, n)));
            q.defer_top(free_at);
        }
        assert_eq!((q.heap.len(), q.slots.len(), q.free.len()), (4, 4, 0), "nothing left its slot");
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(msg_of).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    /// Two queues fed the same random pushes, pops and deferrals — one
    /// deferring in place, the other popping and pushing back — hand out
    /// the same events in the same order.
    #[test]
    fn deferring_the_top_is_popping_and_pushing_it_back() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(19);
        let (mut deferred, mut repushed) = (EventQueue::<u32>::new(), EventQueue::<u32>::new());
        let mut next_msg = 0;
        for _ in 0..20_000 {
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    // Few distinct instants, so ties are the common case.
                    let at = SimTime::from_millis(rng.gen_range(0..16));
                    let node = NodeId(rng.gen_range(0..4));
                    for q in [&mut deferred, &mut repushed] {
                        q.push(at, node, EventKind::Deliver { from: node, msg: next_msg });
                    }
                    next_msg += 1;
                }
                2 => {
                    let Some((at, node)) = deferred.peek() else { continue };
                    let later = at + SimTime::from_millis(rng.gen_range(0..4));
                    deferred.defer_top(later);
                    let kind = repushed.pop().expect("same length");
                    repushed.push(later, node, kind);
                }
                _ => {
                    let popped = [&mut deferred, &mut repushed].map(|q| q.pop().map(msg_of));
                    assert_eq!(popped[0], popped[1]);
                }
            }
            assert_eq!(deferred.peek(), repushed.peek());
        }
        let drain = |q: &mut EventQueue<u32>| -> Vec<u32> {
            std::iter::from_fn(|| q.pop()).map(msg_of).collect()
        };
        assert_eq!(drain(&mut deferred), drain(&mut repushed));
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(9), NodeId(0), EventKind::Deliver { from: NodeId(0), msg: () });
        q.push(SimTime::from_millis(2), NodeId(0), EventKind::Deliver { from: NodeId(0), msg: () });
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(2)));
        assert_eq!(q.heap.len(), 2);
        assert!(!q.heap.is_empty());
    }
}
