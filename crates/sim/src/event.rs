//! The time-ordered event queue at the heart of the simulator.
//!
//! The heap orders 24-byte keys `(at, seq, node, slot)`; the payloads —
//! whole protocol messages, hundreds of bytes each — sit still in a slab
//! (`Vec<Slot<M>>` with a free list) until their key pops, so a sift moves
//! a key and never a message. Keys order by time, then by sequence number:
//! same-instant events pop in the order they were pushed, which is what
//! makes a run reproducible.
//!
//! # Lines
//!
//! The world's busy-server rule turns an event away from a busy node: the
//! event is due again when the node frees up, behind everything queued for
//! that instant, so it takes a fresh sequence number as if popped and
//! pushed again. Under load most events meet their node busy, and when the
//! node frees up, runs one and is busy again, every other waiting event is
//! turned away once more. Re-keying each of them in the heap costs one sift
//! per turn-away, and those are most of a loaded run's events.
//!
//! So an event turned away joins its node's **line** instead: a FIFO of
//! slab slots, each with the sequence number its last turn-away gave it,
//! all due at the line's instant. The heap holds one key per line, the
//! head's. Members' keys rise along the line, so that key is the smallest
//! of them, and the heap with a line is the heap with the line's later keys
//! held back: once the head has gone, the next member's key goes in. Four
//! rules keep the pop order bit for bit the one re-keying every event gives:
//!
//! * **(a)** When the node is still busy at the line's instant (its head ran
//!   and charged, or its head meets it busy), re-keying would pop and turn
//!   away each member in turn. The whole line is turned away in one step,
//!   with consecutive fresh sequence numbers, only when no other key in the
//!   heap lies between its head's and its last member's, so that none would
//!   pop between two members. Otherwise the members go back into the heap at
//!   their own keys and meet the node one by one.
//! * **(b)** An event joins a line only while the head's key is at the
//!   node's current `busy_until`. When an event due exactly at the instant
//!   the node freed up ran ahead of the line and charged, the line waits at
//!   an earlier instant than the node's; an event turned away then is
//!   re-keyed in the heap as before, ahead of the line, where re-keying
//!   every event puts it.
//! * **(c)** A head that charged nothing hands over to the next member at
//!   that member's stored sequence number: the node is still free at the
//!   line's instant.
//! * **(d)** A crashed node drops its whole line when the head's key pops,
//!   each member counted once, as each would have been popped and dropped.
//!
//! A turn-away in one step stamps its sequence numbers lazily: the line
//! notes the first and how many members from the head carry them, so
//! turning away a line of any length costs the same. Each turn-away still
//! counts as one event ([`EventQueue::turn_away`], [`EventQueue::after_run`]
//! and [`EventQueue::drop_top`] return how many they made), so the
//! simulation's event count is the busy-server model's.

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
        /// The timer's user tag.
        timer: Timer,
        /// For a [`Context::arm`](crate::Context::arm)ed timer, its arm id:
        /// it fires only while the node's tag still holds that id.
        armed: Option<u64>,
    },
}

/// Heap entry. The derived order compares `(at, seq)` first and `seq` is
/// unique, so `node` and `slot` never decide.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    node: NodeId,
    /// The event's slot, with [`HEAD`] set on the key of a whole line.
    slot: u32,
}

/// Marks the key of a line, its head's, in [`Key::slot`], so that an event
/// at a node without a line never reads a line.
const HEAD: u32 = 1 << 31;

impl Key {
    fn slot(&self) -> u32 {
        self.slot & !HEAD
    }

    fn heads_line(&self) -> bool {
        self.slot & HEAD != 0
    }
}

/// A queued event's payload, and its place in its node's line if it waits
/// in one.
struct Slot<M> {
    kind: Option<EventKind<M>>,
    /// The member behind it in its line (stale at the tail and outside a
    /// line).
    next: u32,
    /// The sequence number its last turn-away gave it, unless its line was
    /// turned away in one step since ([`Line::renumbered`]).
    seq: u64,
}

/// A busy node's turned-away events in pop order, all due at `at`; only
/// the head's key is in the heap. Empty when `len` is 0.
#[derive(Clone, Copy, Default)]
struct Line {
    at: SimTime,
    head: u32,
    tail: u32,
    len: u32,
    /// The first `renumbered` members from the head carry `base`,
    /// `base + 1`, … (the line's last turn-away in one step); the members
    /// that joined since carry their slot's `seq`.
    base: u64,
    renumbered: u32,
}

/// Deterministic priority queue of simulation events.
pub(crate) struct EventQueue<M> {
    /// `BinaryHeap` is a max-heap; `Reverse` pops the earliest key first.
    heap: BinaryHeap<Reverse<Key>>,
    /// Payload of every queued key, at `Key::slot`.
    slots: Vec<Slot<M>>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<u32>,
    /// Each node's line, by `NodeId` ([`Self::ensure_node`]).
    lines: Vec<Line>,
    /// The node whose line's head [`Self::pop`] took, leaving members
    /// behind: the next member's key stays out of the heap until
    /// [`Self::after_run`] places it.
    waiting: Option<NodeId>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lines: Vec::new(),
            waiting: None,
            next_seq: 0,
        }
    }

    /// Gives `node` its (empty) line, so that lines never grow while the
    /// simulation runs.
    pub fn ensure_node(&mut self, node: NodeId) {
        let i = node.0 as usize;
        if self.lines.len() <= i {
            self.lines.resize(i + 1, Line::default());
        }
    }

    /// Queues `kind` for `node` at `at`, behind everything already queued
    /// for that instant.
    pub fn push(&mut self, at: SimTime, node: NodeId, kind: EventKind<M>) {
        let seq = self.fresh_seq();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].kind = Some(kind);
                slot
            }
            None => {
                self.slots.push(Slot { kind: Some(kind), next: 0, seq: 0 });
                u32::try_from(self.slots.len() - 1)
                    .ok()
                    .filter(|&slot| slot < HEAD)
                    .expect("fewer than 2^31 queued events")
            }
        };
        self.heap.push(Reverse(Key { at, seq, node, slot }));
    }

    /// Takes the earliest event out of the queue; [`Self::peek`] tells
    /// when and where it was due. If it headed its node's line, the rest of
    /// the line waits for [`Self::after_run`].
    pub fn pop(&mut self) -> Option<EventKind<M>> {
        let Reverse(key) = self.heap.pop()?;
        if key.heads_line() && self.leave_head(key.node).len > 0 {
            self.waiting = Some(key.node);
        }
        Some(self.take(key.slot()))
    }

    /// Places the rest of a line after its head, popped by [`Self::pop`],
    /// ran and left the node busy until `busy_until`: the next member heads
    /// it at its own key if the node is still free at the line's instant
    /// (c), else the line is turned away to `busy_until` (a). Returns how
    /// many turn-aways that made; does nothing if the event that ran
    /// headed no line or was its last member.
    pub fn after_run(&mut self, busy_until: SimTime) -> u64 {
        let Some(node) = self.waiting.take() else {
            return 0;
        };
        if busy_until == self.lines[node.0 as usize].at {
            self.push_head(node);
            0
        } else if self.nothing_between(node) {
            self.renumber(node, busy_until)
        } else {
            self.spill(node);
            0
        }
    }

    /// Turns the earliest event away from its node, busy until `until`:
    /// it is due again then, behind everything queued for that instant, in
    /// the node's line if it may join one (b). An event that heads its
    /// line takes the line with it where no other event comes between (a).
    /// Returns how many turn-aways that made.
    pub fn turn_away(&mut self, until: SimTime) -> u64 {
        let Some(&Reverse(top)) = self.heap.peek() else {
            return 0;
        };
        let (node, slot) = (top.node, top.slot());
        if top.heads_line() {
            self.heap.pop();
            if self.nothing_between(node) {
                return self.renumber(node, until);
            }
            // Something pops between the members: only the head goes, and
            // the rest meet the node one by one.
            self.leave_head(node);
            self.spill(node);
            let seq = self.fresh_seq();
            self.start_line(node, slot, until, seq);
            self.push_head(node);
            return 1;
        }
        let line = self.lines[node.0 as usize];
        if line.len == 0 {
            let seq = self.rekey_top(until, HEAD);
            self.start_line(node, slot, until, seq);
        } else if line.at == until {
            self.heap.pop();
            let seq = self.fresh_seq();
            self.slots[slot as usize].seq = seq;
            self.slots[line.tail as usize].next = slot;
            let line = &mut self.lines[node.0 as usize];
            line.tail = slot;
            line.len += 1;
        } else {
            self.rekey_top(until, 0);
        }
        1
    }

    /// Drops the earliest event, at a crashed node; one that heads its
    /// node's line takes the whole line with it (d). Returns how many
    /// events that dropped.
    pub fn drop_top(&mut self) -> u64 {
        let Some(Reverse(key)) = self.heap.pop() else {
            return 0;
        };
        let mut dropped = 1;
        if key.heads_line() {
            let line = self.leave_head(key.node);
            let (mut slot, rest) = (line.head, line.len);
            line.len = 0;
            for _ in 0..rest {
                let next = self.slots[slot as usize].next;
                self.take(slot);
                slot = next;
            }
            dropped += u64::from(rest);
        }
        self.take(key.slot());
        dropped
    }

    /// Re-queues the earliest event for `at`, behind everything already
    /// queued for that instant, with no line: how the reference stepper
    /// the lines are checked against turns every event away. The event
    /// gets the key `pop` followed by `push` would give it (a fresh
    /// sequence number), but the heap's top entry is re-keyed where it
    /// sits: one sift-down, and the payload never leaves its slot.
    #[cfg(test)]
    pub fn defer_top(&mut self, at: SimTime) {
        self.rekey_top(at, 0);
    }

    /// When the earliest event is due, and at which node.
    pub fn peek(&self) -> Option<(SimTime, NodeId)> {
        self.heap.peek().map(|Reverse(key)| (key.at, key.node))
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek().map(|(at, _)| at)
    }

    /// Re-keys the heap's top entry where it sits, for `at` with a fresh
    /// sequence number and `flag` ([`HEAD`] or 0) in its slot; returns the
    /// number.
    fn rekey_top(&mut self, at: SimTime, flag: u32) -> u64 {
        let seq = self.next_seq;
        if let Some(mut top) = self.heap.peek_mut() {
            top.0 = Key { at, seq, node: top.0.node, slot: top.0.slot() | flag };
            self.next_seq += 1;
        }
        seq
    }

    fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    fn take(&mut self, slot: u32) -> EventKind<M> {
        let kind = self.slots[slot as usize].kind.take().expect("a queued key owns its slot");
        self.free.push(slot);
        kind
    }

    /// The sequence number of the member `index` places behind the head,
    /// in `slot`.
    fn member_seq(&self, line: &Line, index: u32, slot: u32) -> u64 {
        if index < line.renumbered {
            line.base + u64::from(index)
        } else {
            self.slots[slot as usize].seq
        }
    }

    /// Takes the head off `node`'s line and returns the line.
    fn leave_head(&mut self, node: NodeId) -> &mut Line {
        let line = &mut self.lines[node.0 as usize];
        line.head = self.slots[line.head as usize].next;
        line.len -= 1;
        if line.renumbered > 0 {
            line.renumbered -= 1;
            line.base += 1;
        }
        line
    }

    /// Makes `slot`, due at `at` with `seq`, the one member of `node`'s
    /// line.
    fn start_line(&mut self, node: NodeId, slot: u32, at: SimTime, seq: u64) {
        self.slots[slot as usize].seq = seq;
        self.lines[node.0 as usize] =
            Line { at, head: slot, tail: slot, len: 1, ..Line::default() };
    }

    /// Puts the key of `node`'s line head into the heap.
    fn push_head(&mut self, node: NodeId) {
        let line = &self.lines[node.0 as usize];
        let seq = self.member_seq(line, 0, line.head);
        self.heap.push(Reverse(Key { at: line.at, seq, node, slot: line.head | HEAD }));
    }

    /// Whether no key in the heap lies between the keys of the head and
    /// the last member of `node`'s line, none of which is in the heap.
    fn nothing_between(&self, node: NodeId) -> bool {
        let line = &self.lines[node.0 as usize];
        let last = (line.at, self.member_seq(line, line.len - 1, line.tail));
        self.heap.peek().is_none_or(|Reverse(key)| (key.at, key.seq) > last)
    }

    /// Turns the whole of `node`'s line, no key of which is in the heap,
    /// away to `until` (a): each member gets the next fresh sequence
    /// number, as one turn-away after the other would give them. Returns
    /// the line's length.
    fn renumber(&mut self, node: NodeId, until: SimTime) -> u64 {
        let line = &mut self.lines[node.0 as usize];
        line.at = until;
        line.base = self.next_seq;
        line.renumbered = line.len;
        self.next_seq += u64::from(line.len);
        let len = line.len;
        self.push_head(node);
        u64::from(len)
    }

    /// Puts every member of `node`'s line, none of whose keys is in the
    /// heap, back into the heap at its own key, and empties the line.
    fn spill(&mut self, node: NodeId) {
        let line = std::mem::take(&mut self.lines[node.0 as usize]);
        let mut slot = line.head;
        for index in 0..line.len {
            let seq = self.member_seq(&line, index, slot);
            self.heap.push(Reverse(Key { at: line.at, seq, node, slot }));
            slot = self.slots[slot as usize].next;
        }
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

    /// Pops every event, each at a node that is free when it pops and stays
    /// free after it: a head hands over to the next member.
    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        std::iter::from_fn(|| {
            let (at, _) = q.peek()?;
            let msg = q.pop().map(msg_of);
            assert_eq!(q.after_run(at), 0, "a free node turns nothing away");
            msg
        })
        .collect()
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
        // world turns each event it finds on top away to t=5: the first
        // starts the node's line, the others join it, payloads in place.
        let mut q: EventQueue<u32> = EventQueue::new();
        let n = NodeId(3);
        q.ensure_node(n);
        let (arrive, free_at) = (SimTime::from_millis(1), SimTime::from_millis(5));
        q.push(free_at, n, EventKind::Deliver { from: n, msg: 0 });
        for msg in 1..=3 {
            q.push(arrive, n, EventKind::Deliver { from: n, msg });
        }
        for _ in 0..3 {
            assert_eq!(q.peek(), Some((arrive, n)));
            assert_eq!(q.turn_away(free_at), 1);
        }
        assert_eq!((q.heap.len(), q.slots.len(), q.free.len()), (2, 4, 0), "one key for the line");
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn an_event_due_when_its_node_frees_runs_ahead_of_the_line() {
        // The node is busy until t=5. Message 0 is due at exactly t=5 and
        // was queued before 1 and 2 met the node busy, so it runs first;
        // it charges 2 ms, and the line waiting at t=5 is turned away to
        // t=7 in one step, still in arrival order.
        let mut q: EventQueue<u32> = EventQueue::new();
        let n = NodeId(1);
        q.ensure_node(n);
        let ms = SimTime::from_millis;
        q.push(ms(5), n, EventKind::Deliver { from: n, msg: 0 });
        for msg in 1..=2 {
            q.push(ms(1), n, EventKind::Deliver { from: n, msg });
            assert_eq!(q.turn_away(ms(5)), 1);
        }
        assert_eq!(q.peek(), Some((ms(5), n)));
        assert_eq!(q.pop().map(msg_of), Some(0), "the event due at the free instant runs first");
        assert_eq!(q.after_run(ms(7)), 0, "it headed no line");
        assert_eq!(q.peek(), Some((ms(5), n)), "the line still waits at t=5");
        assert_eq!(q.turn_away(ms(7)), 2, "both members meet the node busy, in one step");
        assert_eq!(q.peek(), Some((ms(7), n)));
        assert_eq!(drain(&mut q), vec![1, 2]);
    }

    #[test]
    fn a_crashed_nodes_line_is_dropped_and_each_member_counted_once() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let (n, other) = (NodeId(2), NodeId(0));
        q.ensure_node(n);
        let ms = SimTime::from_millis;
        q.push(ms(6), other, EventKind::Deliver { from: other, msg: 9 });
        for msg in 1..=3 {
            q.push(ms(1), n, EventKind::Deliver { from: other, msg });
            assert_eq!(q.turn_away(ms(5)), 1);
        }
        assert_eq!(q.peek(), Some((ms(5), n)));
        assert_eq!(q.drop_top(), 3, "the head and the two members behind it");
        assert_eq!((q.heap.len(), q.free.len()), (1, 3), "every member's slot is free again");
        assert_eq!(drain(&mut q), vec![9]);
        assert_eq!(q.drop_top(), 0, "an empty queue drops nothing");
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
