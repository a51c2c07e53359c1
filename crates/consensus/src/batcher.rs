//! Adaptive request batching for the consensus leader.
//!
//! The leader's batching policy is a first-order latency/throughput knob
//! (the paper's batch-size ablation): proposing every request in its own
//! instance wastes per-instance agreement work (n² votes, MAC vectors) at
//! high load, while waiting for large batches adds queueing delay at low
//! load. The [`Batcher`] closes a batch on whichever cap fires first:
//!
//! * **size cap** — at most `max_batch` payloads per batch,
//! * **delay cap** — no payload lingers more than `delay` past its
//!   enqueue time (the leader arms a linger timer for the oldest entry).
//!
//! The queue needs no byte bound: a client's request subchannel admits a
//! fixed number of requests, so the number of clients bounds its length.
//!
//! With `delay == 0` the batcher degenerates to the legacy greedy cut
//! (`pending.len().min(max_batch)`, proposed immediately) — the default,
//! so existing deployments keep the legacy cut rule. (The replica still
//! gains propose-on-delivery pipelining on top, which only differs from
//! the legacy loop when the pipeline saturates.)
//!
//! In **adaptive** mode the batcher additionally tracks the request
//! arrival rate (an EWMA over inter-arrival gaps) and closes a batch as
//! soon as it reaches the *expected* number of arrivals within one linger
//! window (`rate · delay`, clamped to `[1, max_batch]`). At low load the
//! target collapses to 1 and requests propose immediately (minimal
//! latency); at high load it grows toward `max_batch` so instances
//! amortize their fixed agreement cost (maximal throughput). The linger
//! timer bounds the worst case either way.

use spider_types::SimTime;
use std::collections::VecDeque;

/// Policy knobs of a [`Batcher`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatcherConfig {
    /// Maximum payloads per batch.
    pub max_batch: usize,
    /// Maximum time a payload may linger in the queue before it is
    /// proposed. Zero = propose immediately (legacy greedy batching).
    pub delay: SimTime,
    /// Rate-adaptive target sizing (see [`Batcher`]): the leader targets
    /// the expected number of arrivals within one `delay` window instead
    /// of always waiting for `max_batch`. Needs a non-zero `delay` to
    /// have any effect.
    pub adaptive: bool,
}

impl Default for BatcherConfig {
    /// Legacy greedy batching: up to 8 payloads, proposed immediately.
    fn default() -> Self {
        BatcherConfig { max_batch: 8, delay: SimTime::ZERO, adaptive: false }
    }
}

/// Smoothing factor of the inter-arrival EWMA (dimensionless, `0..1`;
/// larger = faster adaptation).
const RATE_ALPHA: f64 = 0.2;

/// Headroom multiplier on the adaptive size target. Cutting at exactly
/// the expected arrivals-per-linger-window would race the linger timer
/// (and lose: batches would close one request early); 2× headroom lets
/// the linger bound the common case while backlog bursts — e.g. the queue
/// that builds while the pipeline is full — still cut immediately.
const TARGET_HEADROOM: f64 = 2.0;

#[derive(Debug)]
struct Entry<P> {
    payload: P,
    enqueued: SimTime,
}

/// Leader-side payload queue with size/delay-capped batch cuts.
///
/// Sans-IO like the rest of the crate: the owner asks [`Batcher::ready`]
/// whether a batch should close now, [`Batcher::take`] to cut one, and
/// [`Batcher::deadline`] for the instant at which the oldest queued
/// payload must be flushed (to arm a linger timer).
#[derive(Debug)]
pub struct Batcher<P> {
    cfg: BatcherConfig,
    queue: VecDeque<Entry<P>>,
    /// EWMA of inter-arrival gaps in nanoseconds (`None` until two
    /// arrivals have been observed).
    ewma_gap_ns: Option<f64>,
    last_arrival: Option<SimTime>,
}

impl<P> Batcher<P> {
    /// Creates an empty batcher with the given policy.
    pub fn new(cfg: BatcherConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        Batcher { cfg, queue: VecDeque::new(), ewma_gap_ns: None, last_arrival: None }
    }

    /// Number of queued payloads.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a payload at `now` and updates the arrival-rate estimate.
    pub fn push(&mut self, now: SimTime, payload: P) {
        if let Some(last) = self.last_arrival {
            // Same-instant bursts count as a (near) zero gap, which pulls
            // the estimated rate up sharply — exactly what a burst means.
            let gap = now.saturating_sub(last).as_nanos() as f64;
            self.ewma_gap_ns = Some(match self.ewma_gap_ns {
                Some(ewma) => (1.0 - RATE_ALPHA) * ewma + RATE_ALPHA * gap,
                None => gap,
            });
        }
        self.last_arrival = Some(now);
        self.requeue(now, payload);
    }

    /// Enqueues a payload *without* touching the arrival-rate estimate.
    /// For re-queuing requests that were already counted when they first
    /// arrived — e.g. re-proposal after a view change, which would
    /// otherwise look like a same-instant burst and inflate the adaptive
    /// target.
    pub fn requeue(&mut self, now: SimTime, payload: P) {
        self.queue.push_back(Entry { payload, enqueued: now });
    }

    /// Estimated arrival rate in payloads per second (0 until measurable).
    fn arrival_rate_per_sec(&self) -> f64 {
        match self.ewma_gap_ns {
            Some(gap) if gap > 0.0 => 1e9 / gap,
            Some(_) => f64::INFINITY,
            None => 0.0,
        }
    }

    /// The batch size the policy currently aims for: `max_batch` when not
    /// adaptive, else the expected number of arrivals within one linger
    /// window, clamped to `[1, max_batch]`.
    fn target_len(&self) -> usize {
        if !self.cfg.adaptive {
            return self.cfg.max_batch;
        }
        let expected = self.arrival_rate_per_sec() * self.cfg.delay.as_secs_f64() * TARGET_HEADROOM;
        if !expected.is_finite() {
            return self.cfg.max_batch;
        }
        (expected.ceil() as usize).clamp(1, self.cfg.max_batch)
    }

    /// The instant at which the oldest queued payload must be flushed
    /// (`None` when empty).
    pub fn deadline(&self) -> Option<SimTime> {
        self.queue.front().map(|e| e.enqueued + self.cfg.delay)
    }

    /// Whether a batch should close at `now`: the size or delay cap (or
    /// the adaptive target) has been reached.
    pub fn ready(&self, now: SimTime) -> bool {
        let Some(front) = self.queue.front() else {
            return false;
        };
        self.cfg.delay == SimTime::ZERO
            || self.queue.len() >= self.target_len()
            || now >= front.enqueued + self.cfg.delay
    }

    /// Cuts the oldest `max_batch` payloads (or all, if fewer) off the
    /// queue, in arrival order. Returns an empty batch when the queue is
    /// empty.
    pub fn take(&mut self) -> Vec<P> {
        let n = self.queue.len().min(self.cfg.max_batch);
        self.queue.drain(..n).map(|e| e.payload).collect()
    }

    /// Drops all queued payloads (used when a view change supersedes the
    /// leader's queue). The rate estimate survives — load did not change
    /// just because leadership did.
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_batch: usize, delay_ms: u64, adaptive: bool) -> BatcherConfig {
        BatcherConfig { max_batch, delay: SimTime::from_millis(delay_ms), adaptive }
    }

    #[test]
    fn zero_delay_is_greedy() {
        let mut b = Batcher::new(cfg(8, 0, false));
        assert!(!b.ready(SimTime::ZERO));
        b.push(SimTime::ZERO, 10);
        assert!(b.ready(SimTime::ZERO), "greedy mode proposes immediately");
        assert_eq!(b.take().len(), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn size_cap_closes_batch() {
        let mut b = Batcher::new(cfg(3, 50, false));
        let t = SimTime::from_millis(1);
        for _ in 0..2 {
            b.push(t, 10);
        }
        assert!(!b.ready(t), "below size cap and before deadline");
        b.push(t, 10);
        assert!(b.ready(t), "size cap reached");
        assert_eq!(b.take().len(), 3);
    }

    #[test]
    fn take_cuts_the_oldest_max_batch_in_order() {
        let mut b = Batcher::new(cfg(3, 0, false));
        for k in 0..5 {
            b.push(SimTime::from_millis(k), k);
        }
        assert_eq!(b.take(), vec![0, 1, 2]);
        assert_eq!(b.take(), vec![3, 4]);
        assert!(b.is_empty());
    }

    #[test]
    fn deadline_flushes_partial_batch() {
        let mut b = Batcher::new(cfg(8, 10, false));
        let t0 = SimTime::from_millis(5);
        b.push(t0, 10);
        assert_eq!(b.deadline(), Some(SimTime::from_millis(15)));
        assert!(!b.ready(SimTime::from_millis(14)));
        assert!(b.ready(SimTime::from_millis(15)), "delay cap fires");
        assert_eq!(b.take().len(), 1);
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn adaptive_target_tracks_rate() {
        // 1 request per ms, linger 8 ms -> 8 expected arrivals per linger
        // window, times the 2x headroom -> target 16.
        let mut b = Batcher::new(cfg(64, 8, true));
        for k in 0..50u64 {
            b.push(SimTime::from_millis(k), 10);
            let _ = b.take(); // keep the queue short; we only train the rate
        }
        let rate = b.arrival_rate_per_sec();
        assert!((rate - 1000.0).abs() < 1.0, "rate ≈ 1000/s, got {rate}");
        assert_eq!(b.target_len(), 16);
    }

    #[test]
    fn adaptive_low_load_proposes_immediately() {
        // One request every 100 ms, linger 5 ms -> expected arrivals < 1,
        // so a single request is already a full batch.
        let mut b = Batcher::new(cfg(64, 5, true));
        for k in 0..10u64 {
            b.push(SimTime::from_millis(k * 100), 10);
            assert!(b.ready(SimTime::from_millis(k * 100)), "target is 1 at low load");
            let _ = b.take();
        }
    }

    #[test]
    fn adaptive_high_load_waits_for_target() {
        let mut b = Batcher::new(cfg(64, 8, true));
        // Train: 1 req/ms.
        for k in 0..50u64 {
            b.push(SimTime::from_millis(k), 10);
            let _ = b.take();
        }
        // Now a single queued request is NOT ready before its deadline…
        let t = SimTime::from_millis(60);
        b.push(t, 10);
        assert!(!b.ready(t), "target is {} at high load", b.target_len());
        // …but the linger deadline still bounds its wait.
        assert!(b.ready(t + SimTime::from_millis(8)));
    }

    #[test]
    fn requeue_does_not_train_the_rate_estimate() {
        let mut b = Batcher::new(cfg(64, 5, true));
        // Train a low rate: one arrival every 100 ms.
        for k in 0..10u64 {
            b.push(SimTime::from_millis(k * 100), 10);
            let _ = b.take();
        }
        let rate = b.arrival_rate_per_sec();
        // A view change dumps a backlog in at one instant…
        for _ in 0..10 {
            b.requeue(SimTime::from_secs(2), 10);
        }
        // …without making the batcher believe load spiked.
        assert_eq!(b.arrival_rate_per_sec(), rate);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn clear_empties_queue_but_keeps_rate() {
        let mut b = Batcher::new(cfg(8, 10, true));
        b.push(SimTime::from_millis(0), 10);
        b.push(SimTime::from_millis(1), 10);
        let rate = b.arrival_rate_per_sec();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.arrival_rate_per_sec(), rate);
    }
}
