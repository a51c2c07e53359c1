//! Property tests for the adaptive batcher and a regression test pinning
//! the legacy propose behavior.
//!
//! The batcher's contract (see `spider_consensus::Batcher`):
//!
//! 1. a cut batch never exceeds the size cap,
//! 2. whenever the owner can propose, no payload lingers more than
//!    `batch_delay` past its enqueue time — the deadline is always
//!    `oldest enqueue + delay` and `ready` is true at (and after) it,
//! 3. with `pipeline_depth = 1`, `batch_delay = 0`, and adaptive sizing
//!    off, the replica reproduces the legacy cut rule byte-for-byte: the
//!    same `take = pending.len().min(max_batch)` batches at every
//!    propose opportunity, never more than one instance in flight. (The
//!    set of propose opportunities itself grew: the legacy loop only cut
//!    on an Order arrival, while the replica now also refills the
//!    pipeline when a delivery frees a slot — the reference model below
//!    pins the new, strictly-more-live discipline.)

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spider_consensus::{Batcher, BatcherConfig, Input, Msg, Output, Pbft, PbftConfig, TestPayload};
use spider_crypto::CostModel;
use spider_types::{SimTime, WireSize};
use std::collections::VecDeque;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contract 1: the size cap holds for every cut, under random
    /// push/take interleavings and timings.
    #[test]
    fn batches_never_exceed_caps(
        seed in 0u64..100_000,
        max_batch in 1usize..16,
        delay_ms in 0u64..20,
        adaptive_sel in 0u8..2,
    ) {
        let cfg = BatcherConfig {
            max_batch,
            delay: SimTime::from_millis(delay_ms),
            adaptive: adaptive_sel == 1,
        };
        let mut b: Batcher<usize> = Batcher::new(cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut now = SimTime::ZERO;
        let mut next_id = 0usize;
        for _ in 0..200 {
            now += SimTime::from_micros(rng.gen_range(0..5_000u64));
            if rng.gen_range(0..3u8) < 2 {
                b.push(now, next_id);
                next_id += 1;
            } else if b.ready(now) {
                let batch = b.take();
                prop_assert!(!batch.is_empty(), "ready implies a non-empty cut");
                prop_assert!(batch.len() <= max_batch, "size cap violated");
            }
        }
        // Drain: the cap must hold for the leftovers too.
        while !b.is_empty() {
            let batch = b.take();
            prop_assert!(batch.len() <= max_batch);
        }
    }

    /// Contract 2: driving the batcher like a host (flush whenever it is
    /// ready, honor its deadline otherwise), every payload is flushed
    /// within `delay` of its enqueue time.
    #[test]
    fn flushes_within_delay_of_first_enqueue(
        seed in 0u64..100_000,
        max_batch in 1usize..16,
        delay_ms in 1u64..20,
        adaptive_sel in 0u8..2,
    ) {
        let delay = SimTime::from_millis(delay_ms);
        let cfg = BatcherConfig { max_batch, delay, adaptive: adaptive_sel == 1 };
        let mut b: Batcher<usize> = Batcher::new(cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut enqueued: Vec<SimTime> = Vec::new();
        let mut now = SimTime::ZERO;

        let flush = |b: &mut Batcher<usize>, now: SimTime, enq: &[SimTime]| {
            for id in b.take() {
                let waited = now.saturating_sub(enq[id]);
                assert!(waited <= delay, "payload {id} waited {waited} (> {delay})");
            }
        };

        for _ in 0..200 {
            let arrival = now + SimTime::from_micros(rng.gen_range(0..4_000u64));
            // Honor every deadline that falls before the next arrival.
            loop {
                match b.deadline() {
                    Some(dl) if dl <= arrival => {
                        now = now.max(dl);
                        assert!(b.ready(now), "deadline reached but not ready");
                        flush(&mut b, now, &enqueued);
                    }
                    _ => break,
                }
            }
            now = arrival;
            let id = enqueued.len();
            enqueued.push(now);
            b.push(now, id);
            // A host may also flush eagerly whenever the policy says so.
            while b.ready(now) {
                flush(&mut b, now, &enqueued);
            }
            if let Some(dl) = b.deadline() {
                // The deadline is exactly the oldest queued payload's
                // enqueue time plus the linger cap.
                prop_assert_eq!(dl, enqueued[enqueued.len() - b.len()] + delay);
            }
        }
        // Final drain at the remaining deadlines.
        while let Some(dl) = b.deadline() {
            now = now.max(dl);
            assert!(b.ready(now));
            flush(&mut b, now, &enqueued);
        }
    }
}

// ----------------------------------------------------------------------
// Legacy-behavior regression
// ----------------------------------------------------------------------

/// Reference model of the legacy leader's batching: a FIFO `pending`
/// queue cut with `take = pending.len().min(max_batch)` at every propose
/// opportunity (an Order arrival or — new in the pipelined replica — a
/// delivery), one instance in flight at a time.
struct LegacyLeader {
    pending: VecDeque<TestPayload>,
    in_flight: usize,
    max_batch: usize,
    cuts: Vec<Vec<TestPayload>>,
}

impl LegacyLeader {
    fn maybe_cut(&mut self) {
        while !self.pending.is_empty() && self.in_flight < 1 {
            let take = self.pending.len().min(self.max_batch);
            let batch: Vec<TestPayload> = self.pending.drain(..take).collect();
            self.cuts.push(batch);
            self.in_flight += 1;
        }
    }

    fn on_order(&mut self, p: TestPayload) {
        self.pending.push_back(p);
        self.maybe_cut();
    }

    fn on_deliver(&mut self) {
        self.in_flight -= 1;
        self.maybe_cut();
    }
}

#[test]
fn pipeline_depth_one_reproduces_legacy_cut_byte_for_byte() {
    const MAX_BATCH: usize = 3;
    let cfg = PbftConfig::new(1)
        .with_cost(CostModel::zero())
        .with_max_batch(MAX_BATCH)
        .with_pipeline_depth(1);
    assert_eq!(cfg.batching.delay, SimTime::ZERO, "legacy mode is the default");
    assert!(!cfg.batching.adaptive, "legacy mode is the default");
    let mut replicas: Vec<Pbft<TestPayload>> = (0..4).map(|i| Pbft::new(cfg.clone(), i)).collect();
    let mut legacy = LegacyLeader {
        pending: VecDeque::new(),
        in_flight: 0,
        max_batch: MAX_BATCH,
        cuts: Vec::new(),
    };

    // Actual proposals observed on the wire: (seq, batch, wire bytes).
    let mut proposals: Vec<(u64, Vec<TestPayload>, usize)> = Vec::new();
    let mut inbox: VecDeque<(usize, usize, Msg<TestPayload>)> = VecDeque::new();
    let mut in_flight_high_water = 0usize;

    let absorb = |from: usize,
                  out: Vec<Output<TestPayload>>,
                  inbox: &mut VecDeque<(usize, usize, Msg<TestPayload>)>,
                  legacy: &mut LegacyLeader,
                  proposals: &mut Vec<(u64, Vec<TestPayload>, usize)>| {
        for o in out {
            match o {
                Output::Send { to, msg } => {
                    if from == 0 {
                        if let Msg::PrePrepare { seq, ref batch, .. } = msg {
                            if proposals.last().map(|(s, _, _)| *s) != Some(seq.0) {
                                proposals.push((seq.0, (**batch).clone(), msg.wire_size()));
                            }
                        }
                    }
                    inbox.push_back((from, to, msg));
                }
                Output::Deliver { .. } if from == 0 => legacy.on_deliver(),
                _ => {}
            }
        }
    };

    // Drive bursts of orders into the leader, pumping the network dry
    // between bursts (and not at all inside a burst, so the pipeline
    // fills and the pending queue builds up exactly as it would have
    // under the legacy loop).
    let mut next: u64 = 0;
    for burst in [1usize, 5, 2, 7, 1, 4] {
        for _ in 0..burst {
            let p = TestPayload(next);
            next += 1;
            legacy.on_order(p);
            let mut out = Vec::new();
            replicas[0].handle(SimTime::ZERO, Input::Order(p), &mut out);
            absorb(0, out, &mut inbox, &mut legacy, &mut proposals);
        }
        while let Some((from, to, msg)) = inbox.pop_front() {
            let mut out = Vec::new();
            replicas[to].handle(SimTime::ZERO, Input::Message { from, msg }, &mut out);
            absorb(to, out, &mut inbox, &mut legacy, &mut proposals);
            in_flight_high_water = in_flight_high_water.max(legacy.in_flight);
        }
    }

    // Every payload was proposed, one instance at a time.
    assert_eq!(proposals.len(), legacy.cuts.len(), "same number of instances");
    assert!(in_flight_high_water <= 1, "pipeline_depth = 1 means one instance in flight");
    for (i, ((seq, actual, actual_bytes), expected)) in
        proposals.iter().zip(&legacy.cuts).enumerate()
    {
        assert_eq!(*seq, i as u64 + 1, "instances are consecutive");
        assert_eq!(actual, expected, "instance {seq}: batch contents differ from legacy cut");
        let legacy_msg: Msg<TestPayload> = Msg::PrePrepare {
            view: spider_types::ViewNr(0),
            seq: spider_types::SeqNr(*seq),
            batch: std::sync::Arc::new(expected.clone()),
        };
        assert_eq!(
            *actual_bytes,
            legacy_msg.wire_size(),
            "instance {seq}: wire bytes differ from legacy proposal"
        );
    }
    let proposed: usize = proposals.iter().map(|(_, b, _)| b.len()).sum();
    assert_eq!(proposed as u64, next, "no payload lost or duplicated");
}

/// The same schedule with a deeper pipeline proposes *more* eagerly (the
/// whole point of pipelining) — guards against the depth knob being
/// wired backwards.
#[test]
fn deeper_pipeline_proposes_more_instances_concurrently() {
    let run = |depth: usize| -> usize {
        let cfg = PbftConfig::new(1)
            .with_cost(CostModel::zero())
            .with_max_batch(1)
            .with_pipeline_depth(depth);
        let mut leader: Pbft<TestPayload> = Pbft::new(cfg, 0);
        let mut proposed = 0;
        for k in 0..10u64 {
            let mut out = Vec::new();
            leader.handle(SimTime::ZERO, Input::Order(TestPayload(k)), &mut out);
            proposed += out
                .iter()
                .filter(|o| matches!(o, Output::Send { to: 1, msg: Msg::PrePrepare { .. } }))
                .count();
        }
        proposed
    };
    assert_eq!(run(1), 1, "depth 1: only the first order proposes");
    assert_eq!(run(4), 4, "depth 4: four instances in flight");
    assert_eq!(run(32), 10, "depth 32: everything proposes immediately");
}
